"""Tests of the chain benchmark itself (not of cargokg).

    python3 -m pytest chainbench/test_chainbench.py -q

Each workload runs at a tiny size with every check; each check is shown to
reject a wrong output; the tracer is shown to install and remove cleanly;
the set comparison is shown to flag drift, spread and differing failures.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import chain  # noqa: E402
import checks  # noqa: E402
import compare  # noqa: E402
import tracing  # noqa: E402
from cargokg import patterns  # noqa: E402
from cargokg.patterns import PatternKind, Verdict  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = {
    "reference-5k": dict(itineraries=60, ports=30, vessels=30, query_ports=4),
    "anchor-sweep": dict(itineraries=60, ports=30, vessels=30, query_ports=4),
}


def tiny(name: str) -> chain.Workload:
    return dataclasses.replace(chain.WORKLOADS[name], **TINY[name])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(chain.WORKLOADS)
    assert SPEC["command"] == ["python3", "chainbench/run.py"]
    assert SPEC["paths"] == ["chainbench"]


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", [42, 7])
def test_tiny_workload_passes_every_check(name, seed, tmp_path):
    result = chain.run(tiny(name), seed, seconds=0, trace=False, out_dir=str(tmp_path))
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] > 10
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric, spec in zip(result["metrics"].values(), SPEC["end_to_end"]):
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert os.listdir(str(tmp_path)) == []  # the work directory is removed


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    result = chain.run(tiny(name), 42, seconds=0, trace=True, out_dir=str(tmp_path))
    assert result["correct"], result
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for metric, spec in zip(metrics.values(), SPEC["per_layer"]):
        assert metric["unit"] == spec["unit"]
    assert metrics["segmentation.itineraries"]["value"] == 60
    assert metrics["patterns.loop.suspicious"]["value"] == 5
    assert metrics["patterns.loop.anchors"]["value"] > 0
    assert metrics["engine.evaluate_s"]["value"] > 0
    assert metrics["scanners.ut.scan_s"]["value"] > 0
    assert metrics["graph.closure_calls"]["value"] > 0
    assert os.listdir(str(tmp_path)) == ["trace-%s-seed42.json.gz" % name]


def test_rounds_are_whole(tmp_path):
    """attempted is a whole number of identical rounds; set-up is not counted."""
    started = time.perf_counter()
    one = chain.run(tiny("anchor-sweep"), 3, seconds=0, trace=False, out_dir=str(tmp_path))
    # at least two rounds long: a second round starts
    seconds = 2 * (time.perf_counter() - started)
    more = chain.run(tiny("anchor-sweep"), 3, seconds=seconds, trace=False, out_dir=str(tmp_path))
    assert more["attempted"] % one["attempted"] == 0
    assert more["attempted"] > one["attempted"]


def test_known_fault_fails_once_per_round_and_queries_pass(tmp_path):
    """At full anchor-sweep size the Loop forms differ on the seed-7 input:
    one failed operation per round, and the run stays correct. The extra
    PrunedByDate detection of the pair form (p1 PORT0066) must not leak into
    the date-filtered query check."""
    bench = chain.ChainRun(chain.WORKLOADS["anchor-sweep"], 7, str(tmp_path))
    bench.setup()
    bench.run_round()
    tally = bench.tally
    assert tally.failed == 1 and tally.correct, tally.failures
    assert tally.failures[0].startswith("known fault, filtered = unfiltered loop")
    graph = bench.forms_graph
    [port] = [p for p in patterns.realized_source_ports(graph)
              if graph.attr(p, "name") == "PORT0066"]
    [rows] = chain.run_queries(graph, [("loop", PatternKind.LOOP, port)])
    filtered = chain.scanners.scan(PatternKind.LOOP, graph, threshold_days=chain.THRESHOLD_DAYS)
    unfiltered = chain.scanners.scan(PatternKind.LOOP, graph, threshold_days=chain.THRESHOLD_DAYS,
                                     variant="unfiltered")
    assert checks.check_query(graph, rows, filtered, PatternKind.LOOP, port) is None
    assert checks.check_query(graph, rows, unfiltered, PatternKind.LOOP, port) is not None


def test_run_fails_when_a_detection_is_lost(tmp_path, monkeypatch):
    original = patterns.detect

    def lossy(kind, graph, **kwargs):
        found = original(kind, graph, **kwargs)
        if kind is PatternKind.LOOP_INTERMEDIATE:
            lost = next(d for d in found if d.verdict is Verdict.SUSPICIOUS)
            found = [d for d in found if d is not lost]
        return found

    monkeypatch.setattr(patterns, "detect", lossy)
    result = chain.run(tiny("reference-5k"), 42, seconds=0, trace=False, out_dir=str(tmp_path))
    assert not result["correct"]
    assert result["failed"] == 2  # ground truth and scanner agreement


# -- each check rejects a wrong output ---------------------------------------


@pytest.fixture(scope="module")
def tiny_graph(tmp_path_factory):
    """A built, saved and loaded tiny graph with its detections and truth."""
    work = tmp_path_factory.mktemp("graph")
    bench = chain.ChainRun(tiny("reference-5k"), 42, str(work))
    bench.setup()
    bench._cli(["ingest", "--input", bench.path("csm.csv"),
                "--out-itineraries", bench.path("it.jsonl"), "--out-events", bench.path("ev.jsonl")])
    bench._cli(["build-kb", "--itineraries", bench.path("it.jsonl"),
                "--events", bench.path("ev.jsonl"), "--out", bench.path("graph.kb")])
    graph = chain.KnowledgeGraph.load(bench.path("graph.kb"))
    found = patterns.detect(PatternKind.LOOP, graph)
    return bench, graph, found


def test_truth_check_rejects_a_removed_suspicious(tiny_graph):
    bench, _, found = tiny_graph
    injected = bench.truth.of_kind("loop")
    assert checks.check_truth(found, injected) is None
    dropped = [d for d in found if d.itinerary_id != sorted(injected)[0]]
    assert checks.check_truth(dropped, injected) is not None


def test_scan_check_rejects_a_changed_verdict(tiny_graph):
    _, graph, found = tiny_graph
    scanned = chain.scanners.scan(PatternKind.LOOP, graph)
    assert checks.check_against_scan(found, scanned) is None
    flipped = [dataclasses.replace(d) for d in found]
    flipped[0].verdict = (
        Verdict.PRUNED_BY_DATE if flipped[0].verdict is Verdict.SUSPICIOUS else Verdict.SUSPICIOUS
    )
    assert checks.check_against_scan(flipped, scanned) is not None
    assert checks.check_against_scan(found[1:], scanned) is not None


def test_query_check_rejects_a_missing_row(tiny_graph):
    _, graph, found = tiny_graph
    scanned = chain.scanners.scan(PatternKind.LOOP, graph)
    port = next(p for p in patterns.realized_source_ports(graph)
                if checks.scanned_keys_at(graph, scanned, PatternKind.LOOP, p))
    [rows] = chain.run_queries(graph, [("loop", PatternKind.LOOP, port)])
    assert rows
    assert checks.check_query(graph, rows, scanned, PatternKind.LOOP, port) is None
    assert checks.check_query(graph, rows[1:], scanned, PatternKind.LOOP, port) is not None


def test_same_detections_check_rejects_a_changed_gap(tiny_graph):
    _, _, found = tiny_graph
    changed = [dataclasses.replace(d) for d in found]
    changed[-1].date_gap_days = (changed[-1].date_gap_days or 0) + 1
    assert checks.check_same_detections(found, list(found)) is None
    assert checks.check_same_detections(found, changed) is not None


def test_roundtrip_check_rejects_a_one_byte_change(tiny_graph, tmp_path):
    bench, graph, _ = tiny_graph
    resaved = str(tmp_path / "resaved.kb")
    graph.save(resaved)
    assert checks.check_identical_files(bench.path("graph.kb"), resaved) is None
    with open(resaved, "r+b") as fh:
        fh.seek(os.path.getsize(resaved) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 1]))
    assert checks.check_identical_files(bench.path("graph.kb"), resaved) is not None


def test_known_fault_counts_as_failed_but_keeps_the_run_correct():
    tally = checks.Tally()
    tally.check("fine", None)
    tally.check("known", "differs", known_fault=True)
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    tally.check("other", "differs")
    assert (tally.failed, tally.correct) == (2, False)


def test_count_check_rejects_a_lost_itinerary():
    assert checks.check_counts({"ingest": 60, "build-kb": 60}, 60) is None
    assert checks.check_counts({"ingest": 60, "build-kb": 59}, 60) is not None


# -- tracer ---------------------------------------------------------------------


def test_tracer_installs_and_removes_every_wrapper():
    from cargokg import cli, engine, graph

    before = (cli.populate, graph.populate, engine.evaluate_rows, patterns.evaluate_rows,
              graph.KnowledgeGraph.__dict__["load"], graph.KnowledgeGraph.transitive_successors)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.populate is graph.populate is not before[0]
        assert patterns.evaluate_rows is engine.evaluate_rows is not before[2]
        assert graph.KnowledgeGraph.transitive_successors is not before[5]
    finally:
        tracer.uninstall()
    after = (cli.populate, graph.populate, engine.evaluate_rows, patterns.evaluate_rows,
             graph.KnowledgeGraph.__dict__["load"], graph.KnowledgeGraph.transitive_successors)
    assert all(a is b for a, b in zip(before, after))


def test_tracer_skips_missing_targets(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("gone.fn", "cargokg.engine", "no_such_function", None),
        ("gone.method", "cargokg.graph", "KnowledgeGraph.no_such_method", None),
        ("gone.module", "cargokg.no_such_module", "fn", None),
    ])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["engine.evaluate_s"] == 0 and metrics["graph.closure_calls"] == 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    outer.start, outer.end, inner.start, inner.end = 0.0, 10.0, 2.0, 5.0
    outer.folded["graph.closure"] = [4, 1.5]
    assert tracer.self_times() == [10.0 - 3.0 - 1.5, 3.0]
    assert tracer.dump()["rows"][1][2] == 0  # inner's parent is outer


# -- set comparison -----------------------------------------------------------


def _fake_set(scale: float, failed: int = 0):
    results = []
    for i in range(10):
        value = scale * (1.0 + 0.01 * (i % 5))
        results.append({
            "correct": True, "attempted": 100, "failed": failed, "exit_code": 0, "seed": i,
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]},
        })
    return results


def test_compare_accepts_two_matching_sets():
    assert compare.judge(SPEC, [_fake_set(1.0), _fake_set(1.01)]) == []


def test_compare_flags_drift_spread_and_failures():
    problems = compare.judge(SPEC, [_fake_set(1.0), _fake_set(1.5)])
    assert any("second median worse" in p for p in problems)
    noisy = _fake_set(1.0)
    for i, r in enumerate(noisy):
        r["metrics"]["query_s"]["value"] = 1.0 + i
    assert any("query_s: spread" in p for p in compare.judge(SPEC, [noisy, _fake_set(1.0)]))
    failing = compare.judge(SPEC, [_fake_set(1.0), _fake_set(1.0, failed=1)])
    assert any("failed shares differ" in p for p in failing)
    one_run = _fake_set(1.0)
    one_run[3]["failed"] = 1
    assert any("failed shares differ" in p for p in compare.judge(SPEC, [one_run, _fake_set(1.0)]))
    # the same share in every run is steady, even when it is not zero
    assert compare.judge(SPEC, [_fake_set(1.0, failed=1), _fake_set(1.0, failed=1)]) == []


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "chainbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "chainbench/run.py", "--workload", "anchor-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
