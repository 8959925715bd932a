from datetime import date

from cargokg.diagnostics import Diagnostics
from cargokg.linking import (
    BindingKind,
    VesselEventIndex,
    bind_transshipments,
    write_bindings,
)
from cargokg.segmentation import events_from_records, segment_container_sequence
from cargokg.vessels import VesselEvent, VesselEventKind, reconstruct_all

from helpers import (
    P1,
    SHANGAI,
    loop_scenario,
    read_csm_rows,
    table3_records,
    unnecessary_scenario,
)


def _table3_pipeline(vocab):
    per_container = events_from_records(table3_records(), vocab)
    itineraries = segment_container_sequence(per_container["ABCD1234567"])
    flat = [e for events in per_container.values() for e in events]
    calls, vessel_events, trips = reconstruct_all(flat)
    return itineraries, vessel_events


def test_table3_load_binding(vocab):
    itineraries, vessel_events = _table3_pipeline(vocab)
    diag = Diagnostics()
    bindings = bind_transshipments(itineraries, VesselEventIndex(vessel_events), diagnostics=diag)
    by_event = {b.container_event_id: b for b in bindings}
    load_shangai = by_event["12350"]
    assert load_shangai.kind is BindingKind.LOAD_TO_DEPARTURE
    departure = next(e for e in vessel_events if e.event_id == load_shangai.vessel_event_id)
    assert departure.kind is VesselEventKind.DEPARTURE
    assert departure.vessel_id == "aurora"
    assert departure.port == SHANGAI
    assert departure.time == date(2010, 5, 30)


def test_table3_unmatched_discharges_are_diagnosed(vocab):
    itineraries, vessel_events = _table3_pipeline(vocab)
    diag = Diagnostics()
    bindings = bind_transshipments(itineraries, VesselEventIndex(vessel_events), diagnostics=diag)
    # discharges carry only inferred vessels and those vessels have no
    # reconstructed arrival at the discharge ports
    assert diag.count("unbound_discharge") == 2
    bound_events = {b.container_event_id for b in bindings}
    assert "12365" not in bound_events
    assert bound_events == {"12350", "12366", "12555"}


def test_scenario_transshipment_bindings(vocab):
    graph, itineraries = unnecessary_scenario(vocab)
    it = itineraries[0]
    discharge, load = it.transshipments()[0]
    assert graph.objects("ce_" + discharge.event_id, "hasDischargingVesselEvent")
    assert graph.objects("ce_" + load.event_id, "hasLoadingVesselEvent")
    arr = graph.objects("ce_" + discharge.event_id, "hasDischargingVesselEvent")[0]
    dep = graph.objects("ce_" + load.event_id, "hasLoadingVesselEvent")[0]
    assert graph.concept_of(arr) == "Arrival"
    assert graph.concept_of(dep) == "Departure"
    # two distinct vessels at the transshipment
    assert graph.objects(arr, "hasMO") != graph.objects(dep, "hasMO")


def _mini_itineraries(vocab, lines):
    from cargokg.segmentation import event_from_record

    events = [event_from_record(r, vocab) for r in read_csm_rows(lines)]
    return segment_container_sequence(events)


def test_window_boundaries(vocab):
    lines = ["1,ABCD1234560,2011-01-10,Loaded,P1,XX,Full,Vega"]
    itineraries = _mini_itineraries(vocab, lines)
    inside = VesselEventIndex(
        [VesselEvent("ve_vega_0", VesselEventKind.DEPARTURE, "vega", P1, date(2011, 1, 13))]
    )
    outside = VesselEventIndex(
        [VesselEvent("ve_vega_0", VesselEventKind.DEPARTURE, "vega", P1, date(2011, 1, 14))]
    )
    assert len(bind_transshipments(itineraries, inside)) == 1
    diag = Diagnostics()
    assert bind_transshipments(itineraries, outside, diagnostics=diag) == []
    assert diag.count("unbound_load") == 1


def test_no_backward_load_binding(vocab):
    lines = ["1,ABCD1234560,2011-01-10,Loaded,P1,XX,Full,Vega"]
    itineraries = _mini_itineraries(vocab, lines)
    index = VesselEventIndex(
        [VesselEvent("ve_vega_0", VesselEventKind.DEPARTURE, "vega", P1, date(2011, 1, 9))]
    )
    assert bind_transshipments(itineraries, index) == []


def test_bindings_never_cross_ports(vocab):
    graph, itineraries = loop_scenario(vocab)
    for role in ("hasLoadingVesselEvent", "hasDischargingVesselEvent"):
        for subject, obj in graph.role_pairs(role):
            assert graph.objects(subject, "hasLocation") == graph.objects(obj, "hasLocation")


def test_direction_invariants(vocab):
    _, itineraries = loop_scenario(vocab)
    graph, _ = loop_scenario(vocab)
    events_by_node = {}
    for it in itineraries:
        for e in it.events:
            events_by_node["ce_" + e.event_id] = e
    for subject, obj in graph.role_pairs("hasLoadingVesselEvent"):
        ce = events_by_node[subject]
        ve_ts = graph.objects(obj, "hasTimestamp")[0]
        assert ve_ts >= "ts_" + ce.time.isoformat()
    for subject, obj in graph.role_pairs("hasDischargingVesselEvent"):
        ce = events_by_node[subject]
        ve_ts = graph.objects(obj, "hasTimestamp")[0]
        assert ve_ts <= "ts_" + ce.time.isoformat()


def test_bindings_dump_lines(tmp_path, vocab):
    itineraries, vessel_events = _table3_pipeline(vocab)
    bindings = bind_transshipments(itineraries, VesselEventIndex(vessel_events))
    path = tmp_path / "bindings.tsv"
    write_bindings(str(path), bindings)
    assert path.read_text(encoding="utf-8").splitlines() == [
        "12350\tve_aurora_00001\tLoadToDeparture",
        "12366\tve_dawn_00001\tLoadToDeparture",
        "12555\tve_sun_00001\tLoadToDeparture",
    ]
