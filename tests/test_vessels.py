import random
from datetime import date, timedelta

from cargokg.diagnostics import Diagnostics
from cargokg.patterns import PatternKind, detect
from cargokg.pipeline import run_pipeline
from cargokg.segmentation import events_from_records
from cargokg.vessels import (
    VesselEvent,
    VesselEventKind,
    VesselPortCall,
    aggregate_port_calls,
    build_vessel_trips,
    derive_vessel_events,
    reconstruct_all,
    vessel_key,
)

from helpers import (
    ANTWERPEN,
    P1,
    P3,
    PORT_KELANG,
    PX,
    SHANGAI,
    read_csm_rows,
    table3_records,
)
from oracles import cluster_witnesses_oracle, pair_trips_oracle


def _table3_events(vocab):
    per_container = events_from_records(table3_records(), vocab)
    return [e for events in per_container.values() for e in events]


def test_table3_port_calls(vocab):
    calls = aggregate_port_calls(_table3_events(vocab))
    by_vessel = {}
    for c in calls:
        by_vessel.setdefault(c.vessel_id, []).append(c)
    assert by_vessel["aurora"] == [
        VesselPortCall("aurora", SHANGAI, date(2010, 5, 30), date(2010, 5, 30), 1)
    ]
    assert by_vessel["dawn"] == [
        VesselPortCall("dawn", PORT_KELANG, date(2010, 6, 17), date(2010, 6, 17), 1)
    ]
    assert by_vessel["sun"] == [
        VesselPortCall("sun", ANTWERPEN, date(2010, 8, 24), date(2010, 8, 24), 1)
    ]
    # inferred discharge vessels must not witness positions
    assert len(calls) == 3


def test_no_vessel_events_empty():
    assert aggregate_port_calls([]) == []


def _sighting_event(eid, vessel, port, day):
    from cargokg.events import LoadingStatus, ReferenceEvent, TopClass
    from cargokg.segmentation import ContainerEvent

    return ContainerEvent(
        event_id=eid,
        container_id="ABCD1234560",
        time=date(2011, 1, 1) + timedelta(days=day),
        location=port,
        ref_event=ReferenceEvent("LoadedToVessel", TopClass.MARITIME_TRANSSHIPMENT),
        loading_status=LoadingStatus.FULL,
        loading_vessel=vessel,
    )


def test_two_containers_one_call():
    events = [
        _sighting_event("1", "Vega", P1, 0),
        _sighting_event("2", "Vega", P1, 1),
    ]
    calls = aggregate_port_calls(events)
    assert calls == [
        VesselPortCall("vega", P1, date(2011, 1, 1), date(2011, 1, 2), 2)
    ]


def test_clustering_matches_oracle():
    # one port per vessel-day: same-day sightings at two ports are the
    # conflicting-CSM case that is only diagnosed, never clustered
    rng = random.Random(97)
    ports = [P1, P3, PX]
    for _ in range(60):
        window = rng.choice([3, 7])
        port_of_day = {}
        events = []
        for i in range(rng.randrange(0, 14)):
            day = rng.randrange(0, 30)
            port = port_of_day.setdefault(day, rng.choice(ports))
            events.append(_sighting_event(str(i), "Vega", port, day))
        calls = aggregate_port_calls(events, cluster_window_days=window)
        got = sorted(
            (c.first_seen, c.port.key, c.last_seen, c.support) for c in calls
        )
        expected = sorted(
            (first, port_key, last, support)
            for port_key, first, last, support in cluster_witnesses_oracle(
                [(e.time, e.location.key) for e in events], window
            )
        )
        assert got == expected


def test_order_insensitivity():
    rng = random.Random(5)
    events = [
        _sighting_event(str(i), "Vega", rng.choice([P1, P3]), rng.randrange(0, 20))
        for i in range(12)
    ]
    base = aggregate_port_calls(events)
    for _ in range(5):
        shuffled = events[:]
        rng.shuffle(shuffled)
        assert aggregate_port_calls(shuffled) == base


def test_derive_events_expansion():
    calls = [
        VesselPortCall("vega", P1, date(2011, 1, 1), date(2011, 1, 2), 2),
        VesselPortCall("vega", P3, date(2011, 1, 5), date(2011, 1, 6), 1),
    ]
    events = derive_vessel_events(calls)
    assert [(e.kind, e.port, e.time) for e in events] == [
        (VesselEventKind.ARRIVAL, P1, date(2011, 1, 1)),
        (VesselEventKind.DEPARTURE, P1, date(2011, 1, 2)),
        (VesselEventKind.ARRIVAL, P3, date(2011, 1, 5)),
        (VesselEventKind.DEPARTURE, P3, date(2011, 1, 6)),
    ]


def test_derive_events_single_call():
    calls = [VesselPortCall("vega", P1, date(2011, 1, 1), date(2011, 1, 1), 1)]
    events = derive_vessel_events(calls)
    assert len(events) == 2
    assert events[0].kind is VesselEventKind.ARRIVAL
    assert events[1].kind is VesselEventKind.DEPARTURE
    assert {e.port for e in events} == {P1}


def test_loop_route_event_order():
    # vessel touring P3 -> P1 -> PX yields six events in that port order
    calls = [
        VesselPortCall("vessel2", P3, date(2011, 2, 1), date(2011, 2, 2), 2),
        VesselPortCall("vessel2", P1, date(2011, 2, 5), date(2011, 2, 5), 1),
        VesselPortCall("vessel2", PX, date(2011, 2, 8), date(2011, 2, 9), 1),
    ]
    events = derive_vessel_events(calls)
    assert [e.port.name for e in events] == ["P3", "P3", "P1", "P1", "PX", "PX"]
    assert len(events) == 6


def test_overlap_truncated_with_diagnostic():
    diag = Diagnostics()
    calls = [
        VesselPortCall("vega", P1, date(2011, 1, 1), date(2011, 1, 4), 2),
        VesselPortCall("vega", P3, date(2011, 1, 4), date(2011, 1, 6), 1),
    ]
    events = derive_vessel_events(calls, diag)
    assert diag.count("truncated_call") == 1
    arr_p3 = [e for e in events if e.port == P3][0]
    assert arr_p3.time == date(2011, 1, 5)


def test_two_ports_on_one_date_are_overlapping_calls():
    diag = Diagnostics()
    events = [
        _sighting_event("1", "Vega", P3, 0),
        _sighting_event("2", "Vega", P1, 2),
        _sighting_event("3", "Vega", P3, 2),
        _sighting_event("4", "Vega", P1, 5),
    ]
    calls, vessel_events, _ = reconstruct_all(events, diagnostics=diag)
    assert [(c.port, c.first_seen.day, c.last_seen.day) for c in calls] == [
        (P3, 1, 1), (P1, 3, 3), (P3, 3, 3), (P1, 6, 6)
    ]
    assert diag.records[0] == (
        "overlapping_calls", "vessel vega at P1 (XX) and P3 (XX) around 2011-01-03"
    )
    assert diag.count("overlapping_calls") == 1 and diag.count("dropped_call") == 1
    assert vessel_events == derive_vessel_events(list(reversed(calls)))


# two carriers spell one port two ways; both loads board MSC ANNA in one call
TWO_SPELLINGS_LINES = [
    "1,CSQU3054383,2010-04-28,Gate In,Port Kelang,MY,Full,",
    "2,CSQU3054383,2010-05-02,Loaded/Ramped,Port Kelang,MY,Full,MSC ANNA",
    "3,CSQU3054383,2010-05-09,Discharged/Deramped,Rotterdam,NL,Full,MSC ANNA",
    "4,CSQU3054383,2010-05-10,Gate Out,Rotterdam,NL,Full,",
    "5,TGHU8765432,2010-04-27,Gate In,PORT KELANG,MY,Full,",
    "6,TGHU8765432,2010-05-01,Loaded/Ramped,PORT KELANG,MY,Full,MSC ANNA",
    "7,TGHU8765432,2010-05-09,Discharged/Deramped,Rotterdam,NL,Full,MSC ANNA",
    "8,TGHU8765432,2010-05-10,Gate Out,Rotterdam,NL,Full,",
]


def test_two_spellings_of_a_port_are_one_call():
    diag = Diagnostics()
    result = run_pipeline(read_csm_rows(TWO_SPELLINGS_LINES), diagnostics=diag)
    calls = result.port_calls
    assert [(c.port.key, c.first_seen.day, c.last_seen.day, c.support) for c in calls] == [
        ("port_kelang_my", 1, 2, 2), ("rotterdam_nl", 9, 9, 2)
    ]
    assert [t.trip_id for t in result.trips] == ["vt_msc_anna_000"]
    assert diag.count("overlapping_calls") == 0
    for variant in ("filtered", "unfiltered"):
        assert detect(PatternKind.LOOP, result.graph, variant=variant) == []


def test_trips_pairing():
    calls = [
        VesselPortCall("vessel2", P3, date(2011, 2, 1), date(2011, 2, 2), 2),
        VesselPortCall("vessel2", P1, date(2011, 2, 5), date(2011, 2, 5), 1),
        VesselPortCall("vessel2", PX, date(2011, 2, 8), date(2011, 2, 9), 1),
    ]
    events = derive_vessel_events(calls)
    diag = Diagnostics()
    trips = build_vessel_trips(events, diag)
    assert [(t.departure.port.name, t.arrival.port.name) for t in trips] == [
        ("P3", "P1"),
        ("P1", "PX"),
    ]
    assert diag.count("dangling_arrival") == 1
    assert diag.count("dangling_departure") == 1


def test_trips_match_pairing_oracle():
    rng = random.Random(41)
    for _ in range(40):
        calls = []
        day = 0
        for i in range(rng.randrange(0, 8)):
            day += rng.randrange(1, 4)
            first = date(2011, 1, 1) + timedelta(days=day)
            day += rng.randrange(0, 3)
            calls.append(
                VesselPortCall(
                    "vega", rng.choice([P1, P3, PX]), first,
                    date(2011, 1, 1) + timedelta(days=day), 1,
                )
            )
        events = derive_vessel_events(calls)
        trips = build_vessel_trips(events)
        assert [(t.departure.event_id, t.arrival.event_id) for t in trips] == (
            pair_trips_oracle(events)
        )


def test_single_arrival_no_trips():
    events = [
        VesselEvent("ve_x_0", VesselEventKind.ARRIVAL, "x", P1, date(2011, 1, 1))
    ]
    assert build_vessel_trips(events) == []


def test_events_lie_in_call_intervals(vocab):
    rng = random.Random(3)
    events = [
        _sighting_event(str(i), "Vega", rng.choice([P1, P3]), rng.randrange(0, 40))
        for i in range(20)
    ]
    calls, vessel_events, _ = reconstruct_all(events)
    for ve in vessel_events:
        containing = [
            c
            for c in calls
            if c.vessel_id == ve.vessel_id
            and c.port == ve.port
            and c.first_seen <= ve.time <= c.last_seen
        ]
        assert len(containing) == 1


def test_trip_chainability(vocab):
    calls = [
        VesselPortCall("vega", P1, date(2011, 1, 1), date(2011, 1, 2), 1),
        VesselPortCall("vega", P3, date(2011, 1, 5), date(2011, 1, 6), 1),
        VesselPortCall("vega", PX, date(2011, 1, 9), date(2011, 1, 9), 1),
    ]
    trips = build_vessel_trips(derive_vessel_events(calls))
    for a, b in zip(trips, trips[1:]):
        assert a.arrival.port == b.departure.port
        assert a.arrival.time <= b.departure.time


def test_vessel_key_normalisation():
    assert vessel_key("  Aurora ") == "aurora"
    assert vessel_key("MSC Oscar") == "msc_oscar"
