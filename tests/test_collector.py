"""The cyclic garbage collector stays off while the bulk stages build their
objects (``graph.collector_paused``, around the ``ingest`` and ``build-kb``
commands and ``KnowledgeGraph.load``). The pause is safe only if those
stages make no reference cycles, since nothing frees a cycle while the
collector is off, and only if every pause gives the collector back in the
state it found it, whether the stage succeeds or fails."""

import gc
from collections import Counter

import pytest

from cargokg.cli import main
from cargokg.events import VocabularyMap, read_csm_csv, write_csm_csv
from cargokg.graph import GraphFormatError, KnowledgeGraph, collector_paused
from cargokg.linking import DEFAULT_MATCH_WINDOW_DAYS
from cargokg.pipeline import build, ingest
from cargokg.segmentation import read_itineraries, write_itineraries
from cargokg.synthgen import GenConfig, generate
from cargokg.vessels import DEFAULT_CLUSTER_WINDOW_DAYS


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A small generated dataset with its stage files and graph, and a broken
    copy of each: an events file whose first record is cut short and a
    graph file that stops halfway."""
    work = tmp_path_factory.mktemp("collector")
    records, _ = generate(GenConfig(
        seed=42, itinerary_count=60, port_count=10, vessel_count=6,
        transshipment_rate=0.5, injected_loops=1, injected_unnecessary=1,
    ))
    write_csm_csv(str(work / "csm.csv"), records)
    _, itineraries = ingest(records, VocabularyMap())
    write_itineraries(str(work / "it.jsonl"), str(work / "ev.jsonl"), itineraries)
    build(itineraries, DEFAULT_CLUSTER_WINDOW_DAYS, DEFAULT_MATCH_WINDOW_DAYS, None).graph.save(
        str(work / "graph.kb")
    )
    events = (work / "ev.jsonl").read_text().splitlines()
    (work / "bad-ev.jsonl").write_text("\n".join([events[0][:20]] + events[1:]) + "\n")
    lines = (work / "graph.kb").read_text().splitlines()
    (work / "truncated.kb").write_text("\n".join(lines[: len(lines) // 2]) + "\n")
    return work


@pytest.fixture
def restore_collector():
    """Give the collector back as the test found it, debug flags included."""
    enabled, flags = gc.isenabled(), gc.get_debug()
    yield
    gc.set_debug(flags)
    (gc.enable if enabled else gc.disable)()


def test_the_bulk_stages_leave_no_cyclic_garbage(work, restore_collector):
    def at(name):
        return str(work / name)

    gc.collect()
    saved = len(gc.garbage)
    # keep whatever the collector finds unreachable in gc.garbage, to name it
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        with collector_paused():
            records = read_csm_csv(at("csm.csv"))
            _, itineraries = ingest(records, VocabularyMap())
            write_itineraries(at("cycle-it.jsonl"), at("cycle-ev.jsonl"), itineraries)
            itineraries = read_itineraries(at("cycle-it.jsonl"), at("cycle-ev.jsonl"))
            result = build(itineraries, DEFAULT_CLUSTER_WINDOW_DAYS,
                           DEFAULT_MATCH_WINDOW_DAYS, None)
            result.graph.save(at("cycle.kb"))
            loaded = KnowledgeGraph.load(at("cycle.kb"))
            assert len(loaded.individuals) == len(result.graph.individuals) > 0
            del records, itineraries, result, loaded
        gc.collect()
        # under DEBUG_SAVEALL, collect() returns 0: count what it saved
        garbage = Counter(type(o).__name__ for o in gc.garbage[saved:])
    finally:
        del gc.garbage[saved:]
    assert not garbage, garbage.most_common(10)


def _cases(work, out):
    """Each case runs one paused stage and checks its outcome."""
    ingest_argv = ["ingest", "--input", str(work / "csm.csv"),
                   "--out-itineraries", str(out / "it.jsonl"),
                   "--out-events", str(out / "ev.jsonl")]

    def build_kb(events):
        return ["build-kb", "--itineraries", str(work / "it.jsonl"), "--events",
                str(work / events), "--out", str(out / "graph.kb")]

    def load_truncated():
        with pytest.raises(GraphFormatError, match="truncated graph file"):
            KnowledgeGraph.load(str(work / "truncated.kb"))
        return True

    return {
        "ingest": lambda: main(ingest_argv) == 0,
        "build-kb": lambda: main(build_kb("ev.jsonl")) == 0,
        "build-kb of a bad events file": lambda: main(build_kb("bad-ev.jsonl")) == 1,
        "load": lambda: len(KnowledgeGraph.load(str(work / "graph.kb")).individuals) > 0,
        "load of a truncated graph": load_truncated,
        "detect on a truncated graph": lambda: main(
            ["detect", "loop", "--kb", str(work / "truncated.kb")]) == 1,
    }


# a collector found off is what a pause nested in another finds
@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_each_pause_restores_the_collector_state(work, tmp_path, capsys, restore_collector,
                                                 enabled):
    for name, case in _cases(work, tmp_path).items():
        (gc.enable if enabled else gc.disable)()
        assert case(), name
        assert gc.isenabled() is enabled, name
