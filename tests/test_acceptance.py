"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. The large generated datasets are built once per session
and shared; only the 20K graph is kept alive (for the round-trip check).
"""

import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date
from typing import Dict, Optional, Set, Tuple

import pytest

from cargokg.bench import cardinalities_for, run_suite
from cargokg.engine import evaluate
from cargokg.events import VocabularyMap
from cargokg.graph import KnowledgeGraph
from cargokg.patterns import (
    PatternKind,
    Verdict,
    detect,
    load_query,
)
from cargokg.pipeline import run_pipeline
from cargokg.queries import substitute_nominals
from cargokg.scanners import scan
from cargokg.segmentation import Completeness
from cargokg.synthgen import GenConfig, generate

from helpers import (
    ANTWERPEN,
    PORT_KELANG,
    SHANGAI,
    loop_scenario,
    table3_itineraries,
    unnecessary_scenario,
)
from oracles import oracle_evaluate, reachable_oracle
from randgraphs import build_random_graph, build_random_query

THRESHOLD = 3
SIZES = (5000, 10000, 15000, 20000)


@contextmanager
def criterion(number: int, title: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print("ACCEPTANCE %d FAIL  %-40s (%.1fs)" % (number, title, time.perf_counter() - started))
        raise
    print("ACCEPTANCE %d PASS  %-40s (%.1fs)" % (number, title, time.perf_counter() - started))


# ---------------------------------------------------------------------------
# Shared large datasets (zero injection; criteria 4, 5 and 7)


@dataclass
class SizeSummary:
    itinerary_count: int
    suspicious: Dict[Tuple[PatternKind, str], Set[str]] = field(default_factory=dict)
    agreement: Dict[Tuple[PatternKind, str], bool] = field(default_factory=dict)


@dataclass
class SharedState:
    summaries: Dict[int, SizeSummary]
    graph_20k: KnowledgeGraph


def _detection_sets(graph, kind, variant):
    detections = detect(kind, graph, threshold_days=THRESHOLD, variant=variant)
    scans = scan(kind, graph, threshold_days=THRESHOLD, variant=variant)
    got = {(d.key(), d.verdict) for d in detections}
    expected = {(d.key(), d.verdict) for d in scans}
    suspicious = {
        d.itinerary_id for d in detections if d.verdict is Verdict.SUSPICIOUS
    }
    return got == expected, suspicious


@pytest.fixture(scope="session")
def shared_state() -> SharedState:
    summaries: Dict[int, SizeSummary] = {}
    graph_20k: Optional[KnowledgeGraph] = None
    for size in SIZES:
        ports, vessels = cardinalities_for(size)
        cfg = GenConfig(
            seed=42,
            itinerary_count=size,
            port_count=ports,
            vessel_count=vessels,
            transshipment_rate=0.5,
        )
        records, _ = generate(cfg)
        result = run_pipeline(records)
        summary = SizeSummary(len(result.itineraries))
        variants = [("filtered", PatternKind.LOOP),
                    ("filtered", PatternKind.UNNECESSARY_TRANSSHIPMENT),
                    ("filtered", PatternKind.LOOP_INTERMEDIATE)]
        if size == SIZES[0]:
            variants += [("unfiltered", PatternKind.LOOP),
                         ("unfiltered", PatternKind.UNNECESSARY_TRANSSHIPMENT)]
        for variant, kind in variants:
            agree, suspicious = _detection_sets(result.graph, kind, variant)
            summary.agreement[(kind, variant)] = agree
            summary.suspicious[(kind, variant)] = suspicious
        summaries[size] = summary
        if size == 20000:
            graph_20k = result.graph
    assert graph_20k is not None
    return SharedState(summaries, graph_20k)


# ---------------------------------------------------------------------------
# Criterion 1: the 11-row golden sequence


def test_criterion_1_golden_segmentation():
    with criterion(1, "golden 11-row segmentation"):
        started = time.perf_counter()
        itineraries = table3_itineraries(VocabularyMap())
        elapsed = time.perf_counter() - started
        assert len(itineraries) == 2
        first, second = itineraries
        assert first.source_port == SHANGAI
        assert first.start_time == date(2010, 5, 27)
        assert first.destination_port == ANTWERPEN
        assert first.end_time == date(2010, 7, 16)
        assert first.completeness is Completeness.COMPLETE
        pairs = first.transshipments()
        assert len(pairs) == 1
        assert pairs[0][0].location == PORT_KELANG
        assert second.source_port == ANTWERPEN
        assert second.start_time == date(2010, 8, 20)
        assert second.completeness is Completeness.PARTIAL_TAIL
        assert elapsed < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: scenario fixtures


def test_criterion_2_fixture_detection():
    with criterion(2, "scenario fixture detection"):
        vocab = VocabularyMap()
        started = time.perf_counter()

        loop_graph, _ = loop_scenario(vocab)
        loops = detect(PatternKind.LOOP, loop_graph, threshold_days=THRESHOLD)
        assert len(loops) == 1
        assert loops[0].verdict is Verdict.SUSPICIOUS

        negated_loop, _ = loop_scenario(vocab, loop_routing=False)
        assert detect(PatternKind.LOOP, negated_loop, threshold_days=THRESHOLD) == []

        ut_graph, _ = unnecessary_scenario(vocab)
        uts = detect(
            PatternKind.UNNECESSARY_TRANSSHIPMENT, ut_graph, threshold_days=THRESHOLD
        )
        assert len(uts) == 1
        assert uts[0].verdict is Verdict.SUSPICIOUS

        negated_ut, _ = unnecessary_scenario(
            vocab, original_vessel_reaches_destination=False
        )
        assert (
            detect(
                PatternKind.UNNECESSARY_TRANSSHIPMENT,
                negated_ut,
                threshold_days=THRESHOLD,
            )
            == []
        )
        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# Criterion 3: oracle equivalence


def test_criterion_3_oracle_equivalence():
    with criterion(3, "evaluator equals brute-force oracle"):
        started = time.perf_counter()
        rng = random.Random(2024)
        appendix = [
            ("loop_filtered", ("port",)),
            ("loop", ("port1", "port2")),
            ("loop_intermediate", ("port",)),
            ("unnecessary_transshipment", ("port",)),
        ]
        graphs = 0
        random_queries = 0
        appendix_runs = 0
        while graphs < 100:
            graph = build_random_graph(rng)
            assert len(graph.individuals) <= 200
            graphs += 1
            ports = [n for n in sorted(graph.individuals) if n.startswith("port_")]
            for name, placeholders in appendix:
                mapping = dict(zip(placeholders, ports))
                query = substitute_nominals(load_query(name), mapping)
                got = evaluate(query, graph).rows
                assert sorted(got) == oracle_evaluate(query, graph), name
                appendix_runs += 1
            for _ in range(2):
                query = build_random_query(rng, graph)
                assert len(query.atoms) <= 6
                got = evaluate(query, graph).rows
                assert sorted(got) == sorted(oracle_evaluate(query, graph))
                random_queries += 1
        assert graphs >= 100
        assert random_queries >= 50
        assert appendix_runs >= 400
        assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# Criterion 4: dual-implementation agreement


@pytest.mark.slow
def test_criterion_4_dual_implementation(shared_state):
    with criterion(4, "query and procedural routes agree"):
        for size, summary in shared_state.summaries.items():
            for key, agree in summary.agreement.items():
                assert agree, (size, key)


# ---------------------------------------------------------------------------
# Criterion 5: injection recall and precision


@pytest.mark.slow
def test_criterion_5_injection_recall(shared_state):
    with criterion(5, "injection recall 100%, zero false alarms"):
        # zero-injection datasets produce zero Suspicious detections
        for size, summary in shared_state.summaries.items():
            for key, suspicious in summary.suspicious.items():
                assert suspicious == set(), (size, key)
        # recall on k injected anomalies per kind
        for k in (1, 10, 100):
            n = max(60, 8 * k)
            ports, vessels = cardinalities_for(n)
            cfg = GenConfig(
                seed=100 + k,
                itinerary_count=n,
                port_count=min(ports, n // 2),
                vessel_count=min(vessels, n // 2),
                transshipment_rate=0.5,
                injected_loops=k,
                injected_unnecessary=k,
            )
            records, truth = generate(cfg)
            result = run_pipeline(records)
            loops = detect(PatternKind.LOOP, result.graph, threshold_days=THRESHOLD)
            found_loops = {
                d.itinerary_id for d in loops if d.verdict is Verdict.SUSPICIOUS
            }
            assert found_loops == truth.of_kind("loop"), k
            uts = detect(
                PatternKind.UNNECESSARY_TRANSSHIPMENT,
                result.graph,
                threshold_days=THRESHOLD,
            )
            found_uts = {
                d.itinerary_id for d in uts if d.verdict is Verdict.SUSPICIOUS
            }
            assert found_uts == truth.of_kind("unnecessary"), k


# ---------------------------------------------------------------------------
# Criterion 6: scaling shape


@pytest.mark.slow
def test_criterion_6_scaling_shape():
    with criterion(6, "scaling shape and wall-time budget"):
        results = run_suite(
            sizes=list(SIZES),
            patterns=("loop", "unnecessary_transshipment"),
            repetitions=1,
            threshold_days=THRESHOLD,
            seed=42,
            injected_per_kind=5,
        )
        cell = {
            (r.pattern, r.variant, r.itinerary_count): r
            for r in results
        }
        # (a) the date-filtered loop form beats the unfiltered pair form at
        # every size (the quoted reference rows are the loop variants)
        for size in SIZES:
            filtered = cell[("loop", "filtered", size)]
            unfiltered = cell[("loop", "unfiltered", size)]
            assert filtered.status == "ok" and unfiltered.status == "ok"
            assert filtered.median_seconds < unfiltered.median_seconds, size
        # (b) sub-quadratic growth for the date-filtered variants
        for pattern, variant in (
            ("loop", "filtered"),
            ("loop", "intermediate"),
            ("unnecessary_transshipment", "filtered"),
        ):
            small = cell[(pattern, variant, 5000)].median_seconds
            big = cell[(pattern, variant, 20000)].median_seconds
            assert big / max(small, 1e-9) < 16.0, (pattern, variant, small, big)
        # (c) full two-pattern detection at 20K within the wall-time budget
        two_pattern = (
            cell[("loop", "filtered", 20000)].median_seconds
            + cell[("unnecessary_transshipment", "filtered", 20000)].median_seconds
        )
        assert two_pattern < 120.0, two_pattern
        # performance knobs never change answers
        for size in SIZES:
            counts = {
                cell[("loop", v, size)].detections_found
                for v in ("filtered", "unfiltered", "intermediate")
            }
            assert counts == {5}, (size, counts)
            ut_counts = {
                cell[("unnecessary_transshipment", v, size)].detections_found
                for v in ("filtered", "unfiltered")
            }
            assert ut_counts == {5}, (size, ut_counts)


# ---------------------------------------------------------------------------
# Criterion 7: graph round-trip


@pytest.mark.slow
def test_criterion_7_roundtrip(shared_state, tmp_path):
    with criterion(7, "20K graph serialization round-trip"):
        graph = shared_state.graph_20k
        path1 = str(tmp_path / "g1.kb")
        path2 = str(tmp_path / "g2.kb")
        started = time.perf_counter()
        graph.save(path1)
        loaded = KnowledgeGraph.load(path1)
        loaded.save(path2)
        elapsed = time.perf_counter() - started
        with open(path1, "rb") as fh1, open(path2, "rb") as fh2:
            assert fh1.read() == fh2.read()
        assert len(loaded.individuals) == len(graph.individuals)
        assert loaded.edge_count() == graph.edge_count()
        assert elapsed < 30.0


# ---------------------------------------------------------------------------
# Criterion 8: transitive closure vs reachability


def test_criterion_8_closure_property():
    with criterion(8, "closure equals reachability on 1000 chains"):
        rng = random.Random(4096)
        for trial in range(1000):
            n = rng.randrange(1, 51)
            graph = KnowledgeGraph()
            ids = []
            for i in range(n):
                node = "ve_c_%05d" % i
                graph.add_individual(node, "Arrival")
                ids.append(node)
            for a, b in zip(ids, ids[1:]):
                graph.add_edge(a, "hasNextEvent", b)
            graph.seal()
            start = rng.choice(ids)
            edges = list(graph.role_pairs("hasNextEvent"))
            expected = reachable_oracle(edges, start)
            got = set(graph.transitive_successors(start, "hasNextEvent"))
            assert got == expected, trial
