from datetime import date
from itertools import count

import pytest

from cargokg import engine, patterns
from cargokg.engine import evaluate
from cargokg.patterns import (
    Detection,
    DetectTimeout,
    Evidence,
    DETECTORS,
    PatternKind,
    Verdict,
    detect,
    prune_by_date,
    realized_destination_ports,
    realized_source_ports,
    report_text,
    write_report_csv,
    REPORT_COLUMNS,
)
from cargokg.pipeline import run_pipeline
from cargokg.queries import parse_query
from cargokg.scanners import scan
from cargokg.synthgen import GenConfig, generate

from helpers import loop_scenario, unnecessary_scenario


def _keys(detections, verdict=None):
    return {
        d.key() + ((d.verdict,) if verdict is None else ())
        for d in detections
        if verdict is None or d.verdict is verdict
    }


def test_loop_detected_on_fixture(vocab):
    graph, _ = loop_scenario(vocab)
    detections = detect(PatternKind.LOOP, graph, threshold_days=3)
    assert len(detections) == 1
    det = detections[0]
    assert det.verdict is Verdict.SUSPICIOUS
    assert det.itinerary_id == "FIGU0000514-001"
    assert det.kind is PatternKind.LOOP
    assert det.date_gap_days == -1  # vessel looped back a day before the end
    assert det.evidence.port_p1 == "P1"
    assert det.evidence.port_px == "PX"
    assert det.evidence.transshipment_port == "P3"
    assert det.evidence.vessel2 == "Vessel2"
    assert det.evidence.vessel1 == "Vessel1"
    assert det.evidence.vessel1 != det.evidence.vessel2
    assert det.evidence.container_end_date == date(2010, 3, 13)
    assert det.evidence.vessel_date == date(2010, 3, 12)


def test_loop_negated_routing_yields_nothing(vocab):
    graph, _ = loop_scenario(vocab, loop_routing=False)
    assert detect(PatternKind.LOOP, graph) == []
    assert detect(PatternKind.LOOP, graph, variant="unfiltered") == []
    assert detect(PatternKind.LOOP_INTERMEDIATE, graph) == []


def test_loop_fixture_has_no_unnecessary_transshipment(vocab):
    graph, _ = loop_scenario(vocab)
    assert detect(PatternKind.UNNECESSARY_TRANSSHIPMENT, graph) == []


def test_unnecessary_detected_on_fixture(vocab):
    graph, _ = unnecessary_scenario(vocab)
    detections = detect(PatternKind.UNNECESSARY_TRANSSHIPMENT, graph)
    assert len(detections) == 1
    det = detections[0]
    assert det.verdict is Verdict.SUSPICIOUS
    assert det.itinerary_id == "FIGU0000620-001"
    assert det.date_gap_days == 1
    assert det.evidence.port_px == "P4"
    assert det.evidence.vessel1 == "Vessel1"
    assert det.evidence.vessel2 == "Vessel2"
    assert det.evidence.transshipment_port == "P3"


def test_unnecessary_negated_routing_yields_nothing(vocab):
    graph, _ = unnecessary_scenario(vocab, original_vessel_reaches_destination=False)
    assert detect(PatternKind.UNNECESSARY_TRANSSHIPMENT, graph) == []


def test_unnecessary_fixture_has_no_loop(vocab):
    graph, _ = unnecessary_scenario(vocab)
    assert detect(PatternKind.LOOP, graph) == []
    assert detect(PatternKind.LOOP_INTERMEDIATE, graph) == []


def test_late_arrival_pruned_by_date(vocab):
    graph, _ = unnecessary_scenario(vocab, arrival_gap_days=90)
    detections = detect(PatternKind.UNNECESSARY_TRANSSHIPMENT, graph)
    assert len(detections) == 1
    assert detections[0].verdict is Verdict.PRUNED_BY_DATE
    assert detections[0].date_gap_days == 90


def test_loop_variants_agree_on_fixture(vocab):
    graph, _ = loop_scenario(vocab)
    filtered = detect(PatternKind.LOOP, graph)
    unfiltered = detect(PatternKind.LOOP, graph, variant="unfiltered")
    assert _keys(filtered, Verdict.SUSPICIOUS) == _keys(unfiltered, Verdict.SUSPICIOUS)
    intermediate = detect(PatternKind.LOOP_INTERMEDIATE, graph)
    suspicious = [d for d in intermediate if d.verdict is Verdict.SUSPICIOUS]
    assert {d.itinerary_id for d in suspicious} == {"FIGU0000514-001"}


def test_detect_agrees_with_procedural_scan(vocab):
    for build, kwargs in [
        (loop_scenario, {}),
        (loop_scenario, {"loop_routing": False}),
        (unnecessary_scenario, {}),
        (unnecessary_scenario, {"original_vessel_reaches_destination": False}),
        (unnecessary_scenario, {"arrival_gap_days": 90}),
    ]:
        graph, _ = build(vocab, **kwargs)
        for kind in PatternKind:
            for variant in ("filtered", "unfiltered"):
                got = detect(kind, graph, variant=variant)
                expected = scan(kind, graph, variant=variant)
                assert {(d.key(), d.verdict) for d in got} == {
                    (d.key(), d.verdict) for d in expected
                }, (kind, variant)


def test_port_iteration_completeness(vocab):
    # union over realized (P1, PX) instantiations = one unconstrained query
    graph, _ = loop_scenario(vocab)
    detections = detect(PatternKind.LOOP, graph, variant="unfiltered")
    unconstrained = parse_query(
        """
        SELECT DISTINCT ?c ?p1 ?p2 ?vd WHERE {
          ?c a st:Container_itinerary .
          ?c st:hasEndTime ?cd .
          ?c st:hasCISourcePort ?p1 .
          ?c st:hasCIDestinationPort ?p2 .
          ?c st:hasContainerEvent ?t .
          ?t rdf:type ?eventClass .
          ?eventClass rdfs:subClassOf st:Transshipment_Event .
          ?t st:hasLoadingVesselEvent ?v .
          ?v st:hasNextVesselEvent ?v1 .
          ?v1 st:hasLocation ?p1 .
          ?v1 st:hasNextVesselEvent ?v2 .
          ?v2 st:hasLocation ?p2 .
          ?v2 st:hasTimestamp ?vd .
        }
        """
    )
    rows = evaluate(unconstrained, graph).rows
    assert {r[0] for r in rows} == {
        "ci_" + d.itinerary_id.lower().replace("-", "_") for d in detections
    }
    # the pair the iteration found matches the projected ports
    assert {("port_p1_xx", "port_px_xx")} == {(r[1], r[2]) for r in rows}


def test_prune_by_date_examples():
    def det(gap):
        return Detection(
            itinerary_id="X-001",
            kind=PatternKind.LOOP,
            evidence=Evidence(
                container_end_date=date(2012, 1, 1),
                vessel_date=date(2012, 1, 1),
            ),
            date_gap_days=gap,
        )

    suspicious, pruned = prune_by_date([det(0), det(400), det(3), det(-3), det(4)], 3)
    assert [d.date_gap_days for d in suspicious] == [0, 3, -3]
    assert [d.date_gap_days for d in pruned] == [400, 4]
    assert all(d.verdict is Verdict.SUSPICIOUS for d in suspicious)
    assert all(d.verdict is Verdict.PRUNED_BY_DATE for d in pruned)

    missing = Detection("X-002", PatternKind.LOOP, Evidence(), date_gap_days=None)
    suspicious, pruned = prune_by_date([missing], 3)
    assert suspicious == []
    assert pruned[0].verdict_reason == "MissingDate"


def test_prune_is_a_partition(vocab):
    graph, _ = unnecessary_scenario(vocab, arrival_gap_days=2)
    raw = detect(PatternKind.UNNECESSARY_TRANSSHIPMENT, graph)
    suspicious, pruned = prune_by_date(list(raw), 3)
    assert len(suspicious) + len(pruned) == len(raw)
    assert not (_keys(suspicious) & _keys(pruned))


def test_report_empty():
    text = report_text([])
    assert "suspicious: 0" in text
    for kind in PatternKind:
        assert kind.value in text


def test_report_combined(tmp_path, vocab):
    loop_graph, _ = loop_scenario(vocab)
    ut_graph, _ = unnecessary_scenario(vocab)
    detections = detect(PatternKind.LOOP, loop_graph) + detect(
        PatternKind.UNNECESSARY_TRANSSHIPMENT, ut_graph
    )
    text = report_text(detections)
    assert "Loop" in text and "UnnecessaryTransshipment" in text
    assert text.count("Suspicious") >= 2
    path = str(tmp_path / "report.csv")
    write_report_csv(path, detections)
    import csv

    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_COLUMNS
    assert len(rows) == 3
    assert rows[1][0] == "Loop"
    assert rows[2][0] == "UnnecessaryTransshipment"


def test_detectors_cover_every_cell_and_anchor_their_evidence(vocab):
    assert set(DETECTORS) == {(kind, variant) for kind in PatternKind
                              for variant in ("filtered", "unfiltered")}
    ut_graph, _ = unnecessary_scenario(vocab)
    loop_graph, _ = loop_scenario(vocab)
    for variant in ("filtered", "unfiltered"):
        [ut] = detect(PatternKind.UNNECESSARY_TRANSSHIPMENT, ut_graph, variant=variant)
        assert (ut.evidence.port_p1, ut.evidence.port_px) == ("", "P4")
        [loop] = detect(PatternKind.LOOP, loop_graph, variant=variant)
        assert (loop.evidence.port_p1, loop.evidence.port_px) == ("P1", "PX")


def test_detect_rejects_a_negative_threshold_and_an_unknown_cell(vocab):
    graph, _ = loop_scenario(vocab)
    with pytest.raises(ValueError, match="non-negative"):
        detect(PatternKind.LOOP, graph, threshold_days=-1)
    with pytest.raises(ValueError, match="no detector"):
        detect(PatternKind.LOOP, graph, variant="sideways")
    with pytest.raises(ValueError, match="no detector"):
        detect("Loop", graph)


def test_detect_deadline(vocab):
    graph, _ = loop_scenario(vocab)
    with pytest.raises(DetectTimeout):
        detect(PatternKind.LOOP, graph, deadline_seconds=-1)


def test_detect_deadline_fires_between_pair_passes(monkeypatch):
    # a clock that advances one second per reading: the deadline runs out at
    # the eleventh anchor, after ten passes of the Loop pair sweep
    records, _ = generate(GenConfig(seed=7, itinerary_count=60, port_count=30,
                                    vessel_count=10, transshipment_rate=0.5))
    graph = run_pipeline(records).graph
    pairs = len(realized_source_ports(graph)) * len(realized_destination_ports(graph))
    ticks = count()
    monkeypatch.setattr(patterns.time, "monotonic", lambda: float(next(ticks)))
    passes = []
    run = engine._Program.run
    monkeypatch.setattr(
        engine._Program, "run", lambda self, values: passes.append(values) or run(self, values)
    )
    with pytest.raises(DetectTimeout):
        detect(PatternKind.LOOP, graph, variant="unfiltered", deadline_seconds=10.5)
    assert len(passes) == 10 < pairs
