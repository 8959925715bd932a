"""Every stage output is replaced atomically: a write that fails partway
leaves the previous files byte-identical and no partial file behind."""

import dataclasses
import os
import stat
from pathlib import Path
from unittest import mock

import pytest

from cargokg import cli
from cargokg.atomicfile import atomic_write
from cargokg.bench import BenchResult
from cargokg.events import VocabularyMap, write_csm_csv
from cargokg.linking import write_bindings
from cargokg.patterns import PatternKind, detect, write_report_csv
from cargokg.pipeline import run_pipeline
from cargokg.queries import ResultSet
from cargokg.segmentation import write_itineraries
from cargokg.vessels import write_vessel_stage

from cargokg.synthgen import GenConfig, GroundTruth, generate

from helpers import loop_scenario

GEN = GenConfig(seed=3, itinerary_count=40, port_count=8, vessel_count=5)


@pytest.fixture(scope="module")
def result():
    return run_pipeline(generate(GEN)[0])


def _broken_last(items, **changes):
    """``items`` with the last one changed so that writing it raises."""
    return items[:-1] + [dataclasses.replace(items[-1], **changes)]


def _itineraries(paths, result, fail):
    its = _broken_last(result.itineraries, end_time=None) if fail else result.itineraries
    write_itineraries(paths[0], paths[1], its)


def _vessel_stage(paths, result, fail):
    trips = _broken_last(result.trips, departure=None) if fail else result.trips
    write_vessel_stage(paths[0], paths[1], result.vessel_events, trips)


def _bindings(paths, result, fail):
    bindings = list(result.bindings)
    if fail:
        bindings.insert(0, dataclasses.replace(bindings[0], container_event_id="\udcff"))
    write_bindings(paths[0], bindings)


def _report(paths, result, fail):
    graph, _ = loop_scenario(VocabularyMap())
    detections = detect(PatternKind.LOOP, graph)
    if fail:
        detections = _broken_last(detections, itinerary_id="\udcff")
    write_report_csv(paths[0], detections)


def _result_set(paths, result, fail):
    rows = [("a", "b"), ("c", "\udcff" if fail else "d")]
    ResultSet(["x", "y"], rows).to_csv(paths[0])


def _csm(paths, result, fail):
    records = generate(GEN)[0]
    write_csm_csv(paths[0], _broken_last(records, container_id="\udcff") if fail else records)


def _truth(paths, result, fail):
    GroundTruth({"it_1": "loop", "it_2": "\udcff" if fail else "unnecessary"}).write_csv(paths[0])


def _bench(paths, result, fail):
    # the table is written after the results CSV, from the same results
    cell = BenchResult("5K", 5000, "loop", "filtered", 3, 0.5, 2, 1000, "ok")
    cells = [cell, dataclasses.replace(cell, variant="unfiltered")]
    args = cli.build_parser().parse_args(["bench", "--out-dir", os.path.dirname(paths[0])])
    suite = _broken_last(cells, dataset_label="\udcff") if fail else cells
    with mock.patch.object(cli, "run_suite", return_value=suite):
        cli._cmd_bench(args)


@pytest.mark.parametrize(
    "write, names, error",
    [
        (_itineraries, ("it.jsonl", "ev.jsonl"), AttributeError),
        (_vessel_stage, ("vessel_events.jsonl", "trips.jsonl"), AttributeError),
        (_bindings, ("bindings.tsv",), UnicodeEncodeError),
        (_report, ("report.csv",), UnicodeEncodeError),
        (_result_set, ("rows.csv",), UnicodeEncodeError),
        (_csm, ("csm.csv",), UnicodeEncodeError),
        (_truth, ("truth.csv",), UnicodeEncodeError),
        (_bench, ("bench_results.csv", "bench_table.txt"), UnicodeEncodeError),
    ],
    ids=["itineraries", "vessel-stage", "bindings", "report", "result-set", "csm", "truth",
         "bench"],
)
def test_a_failed_write_keeps_the_previous_files(tmp_path, result, write, names, error):
    paths = [str(tmp_path / name) for name in names]
    write(paths, result, fail=False)
    before = [Path(p).read_bytes() for p in paths]
    assert all(before)
    with pytest.raises(error):
        write(paths, result, fail=True)
    assert [Path(p).read_bytes() for p in paths] == before
    assert sorted(os.listdir(tmp_path)) == sorted(names)


def test_one_path_named_for_both_stage_files_is_an_error(tmp_path, result):
    path = tmp_path / "both.jsonl"
    path.write_text("previous\n")
    with pytest.raises(FileExistsError):
        write_itineraries(str(path), str(path), result.itineraries)
    assert path.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["both.jsonl"]


def test_a_symbolic_link_is_kept_and_its_target_replaced(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    with atomic_write(str(link)) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]


def test_a_pipe_is_written_in_place(tmp_path):
    # as os.devnull and /dev/stdout are: a rename would put a file in its place
    pipe = tmp_path / "out.pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with atomic_write(str(pipe)) as fh:
            fh.write("rows\n")
        assert os.read(reader, 100) == b"rows\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert os.listdir(tmp_path) == ["out.pipe"]
