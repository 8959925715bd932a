import contextlib
import csv
import io
import json
import os
import tempfile
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from cargokg.cli import main
from cargokg.engine import UnresolvedNameError, evaluate, resolve_names
from cargokg.events import (
    CSM_CSV_COLUMNS,
    CsmParseError,
    VocabularyError,
    VocabularyMap,
    read_csm_csv,
    write_csm_csv,
)
from cargokg.graph import GraphError, KnowledgeGraph, vessel_node
from cargokg.patterns import load_query_text
from cargokg.pipeline import ingest, run_pipeline
from cargokg.queries import QuerySyntaxError, parse_query
from cargokg.segmentation import StageFileError, event_to_json, itinerary_to_json
from cargokg.synthgen import GenConfig, InfeasibleConfigError, generate

from helpers import loop_scenario, table3_records, unnecessary_scenario
from oracles import oracle_evaluate

# the header of a saved graph of this format version, before its three counts
HEADER = "cargokg-graph %d" % KnowledgeGraph.FORMAT_VERSION


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_full_pipeline_end_to_end(tmp_path, capsys):
    out = tmp_path
    code, stdout, _ = _run(
        capsys,
        "gen",
        "--seed", "42",
        "--itineraries", "80",
        "--ports", "12",
        "--vessels", "8",
        "--transshipment-rate", "0.5",
        "--loops", "2",
        "--unnecessary", "1",
        "--out", str(out / "csm.csv"),
        "--truth", str(out / "truth.csv"),
    )
    assert code == 0
    assert "records=" in stdout

    code, stdout, _ = _run(
        capsys,
        "ingest",
        "--input", str(out / "csm.csv"),
        "--out-itineraries", str(out / "itineraries.jsonl"),
        "--out-events", str(out / "events.jsonl"),
    )
    assert code == 0
    assert "itineraries=80" in stdout

    code, stdout, _ = _run(
        capsys,
        "build-kb",
        "--itineraries", str(out / "itineraries.jsonl"),
        "--events", str(out / "events.jsonl"),
        "--out", str(out / "graph.kb"),
        "--out-trips", str(out / "trips.jsonl"),
        "--out-vessel-events", str(out / "vessel_events.jsonl"),
        "--out-bindings", str(out / "bindings.tsv"),
    )
    assert code == 0
    assert "itineraries=80" in stdout
    assert (out / "trips.jsonl").exists()
    assert (out / "bindings.tsv").exists()
    # the CLI's persisted stages build the same graph as the one-call chain
    run_pipeline(read_csm_csv(str(out / "csm.csv"))).graph.save(str(out / "direct.kb"))
    assert (out / "graph.kb").read_bytes() == (out / "direct.kb").read_bytes()

    code, stdout, _ = _run(
        capsys,
        "detect", "loop",
        "--kb", str(out / "graph.kb"),
        "--threshold-days", "3",
        "--out", str(out / "report.csv"),
        "--quiet",
    )
    assert code == 0
    assert "suspicious=2" in stdout

    code, stdout, _ = _run(
        capsys,
        "detect", "unnecessary-transshipment",
        "--kb", str(out / "graph.kb"),
        "--quiet",
    )
    assert code == 0
    assert "suspicious=1" in stdout

    with open(out / "report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "pattern"


def test_query_subcommand(tmp_path, capsys, vocab):
    graph, _ = unnecessary_scenario(vocab)
    kb = tmp_path / "fig6.kb"
    graph.save(str(kb))
    qfile = tmp_path / "ut.pq"
    qfile.write_text(load_query_text("unnecessary_transshipment"))
    out_csv = tmp_path / "rows.csv"
    code, stdout, _ = _run(
        capsys,
        "query", str(qfile),
        "--kb", str(kb),
        "--bind", "port=port_p4_xx",
        "--out", str(out_csv),
    )
    assert code == 0
    assert "rows=1" in stdout
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["c", "endCI", "vesStop"]
    assert len(rows) == 2

    # port display names are accepted as binding values
    code, stdout, _ = _run(
        capsys, "query", str(qfile), "--kb", str(kb), "--bind", "port=P4"
    )
    assert code == 0
    assert "ci_figu0000620_001" in stdout


@pytest.fixture
def ut_query(tmp_path, vocab):
    """``query`` of the unnecessary-transshipment template on its fixture."""
    graph, _ = unnecessary_scenario(vocab)
    kb = tmp_path / "fig6.kb"
    graph.save(str(kb))
    qfile = tmp_path / "ut.pq"
    qfile.write_text(load_query_text("unnecessary_transshipment"))
    return ["query", str(qfile), "--kb", str(kb)]


def test_bind_of_a_name_the_query_lacks_is_an_error(ut_query, capsys):
    # hasCIDestinationPort is an st: name of the query, but a role, not a term
    for name in ("nosuch", "hasCIDestinationPort"):
        code, out, err = _run(capsys, *ut_query, "--bind", name + "=port_p4_xx")
        assert code == 1 and out == ""
        assert "--bind %s: the query has no st:%s term" % (name, name) in err


def test_bind_of_an_empty_name_is_an_error(ut_query, capsys):
    code, out, err = _run(capsys, *ut_query, "--bind", "=port_p4_xx")
    assert code == 1 and out == ""
    assert "--bind '=port_p4_xx' has an empty NAME" in err


def test_bind_of_a_name_twice_is_an_error(ut_query, capsys):
    code, out, err = _run(capsys, *ut_query, "--bind", "port=port_p4_xx", "--bind", "port=P4")
    assert code == 1 and out == ""
    assert "--bind port is given more than once" in err


def test_query_empty_graph_empty_csv(tmp_path, capsys):
    from cargokg.graph import KnowledgeGraph

    g = KnowledgeGraph()
    g.seal()
    kb = tmp_path / "empty.kb"
    g.save(str(kb))
    qfile = tmp_path / "q.pq"
    qfile.write_text("SELECT ?x WHERE { ?x a st:Port . }")
    out_csv = tmp_path / "rows.csv"
    code, stdout, _ = _run(
        capsys, "query", str(qfile), "--kb", str(kb), "--out", str(out_csv)
    )
    assert code == 0
    assert "rows=0" in stdout
    assert out_csv.read_text().strip() == "x"


def test_detect_on_fixture_kb(tmp_path, capsys, vocab):
    graph, _ = loop_scenario(vocab)
    kb = tmp_path / "fig5.kb"
    graph.save(str(kb))
    code, stdout, _ = _run(
        capsys, "detect", "loop", "--kb", str(kb), "--threshold-days", "3"
    )
    assert code == 0
    assert "suspicious=1" in stdout
    assert "FIGU0000514-001" in stdout


def test_error_exit_codes(tmp_path, capsys):
    code, _, err = _run(capsys, "detect", "loop", "--kb", str(tmp_path / "nope.kb"))
    assert code == 1
    assert "error:" in err

    bad = tmp_path / "bad.kb"
    bad.write_text("cargokg-graph 99 0 0 0\n")
    code, _, err = _run(capsys, "detect", "loop", "--kb", str(bad))
    assert code == 1
    assert "version" in err

    truncated = tmp_path / "trunc.kb"
    truncated.write_text(HEADER + " 0 0 1\nedge ce_1 hasLocation\n")
    code, _, err = _run(capsys, "detect", "loop", "--kb", str(truncated))
    assert code == 1
    assert "line 2: malformed edge record" in err

    escaped = tmp_path / "escape.kb"
    escaped.write_text(HEADER + " 0 1 0\nindividual port_x Port name=Bad%zzName\n")
    code, _, err = _run(capsys, "detect", "loop", "--kb", str(escaped))
    assert code == 1
    assert "line 2: bad percent-escape" in err and "Traceback" not in err

    ghost = tmp_path / "ghost.kb"
    ghost.write_text(
        HEADER + " 0 1 1\nindividual a ContainerItinerary\nedge a hasMO ghost\n"
    )
    code, _, err = _run(capsys, "detect", "loop", "--kb", str(ghost))
    assert code == 1
    assert err.startswith("error: line 3: edge (a, hasMO, ghost) references an unknown")
    assert "Traceback" not in err

    qfile = tmp_path / "broken.pq"
    qfile.write_text("SELECT ?x WHERE { ?x a st:Port .")
    code, _, err = _run(capsys, "query", str(qfile), "--kb", str(bad))
    assert code == 1

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "error",
    [
        CsmParseError,
        GraphError,
        InfeasibleConfigError,
        QuerySyntaxError,
        StageFileError,
        UnresolvedNameError,
        VocabularyError,
    ],
)
def test_typed_input_errors_are_value_errors(error):
    # main reports (OSError, ValueError) as "error: ..." and exit code 1; an
    # input error outside them would escape as a traceback
    assert issubclass(error, ValueError)


def test_a_directory_given_as_a_file_is_an_error_not_a_traceback(tmp_path, capsys):
    csm, it, ev, kb = (str(tmp_path / n) for n in ("t3.csv", "it.jsonl", "ev.jsonl", "g.kb"))
    write_csm_csv(csm, table3_records())
    assert _run(capsys, "ingest", "--input", csm, "--out-itineraries", it, "--out-events", ev)[0] == 0
    assert _run(capsys, "build-kb", "--itineraries", it, "--events", ev, "--out", kb)[0] == 0
    qfile = tmp_path / "q.pq"
    qfile.write_text("SELECT ?x WHERE { ?x a st:Port . }")
    folder = tmp_path / "folder"
    folder.mkdir()
    before = sorted(os.listdir(tmp_path))
    for argv in (
        ["build-kb", "--itineraries", it, "--events", ev, "--out", str(folder)],
        ["ingest", "--input", csm, "--out-itineraries", str(folder),
         "--out-events", str(tmp_path / "ev2.jsonl")],
        ["detect", "loop", "--kb", str(folder)],
        ["query", str(qfile), "--kb", str(folder)],
    ):
        code, _, err = _run(capsys, *argv)
        assert code == 1, argv
        assert "error:" in err and "Traceback" not in err, argv
        assert sorted(os.listdir(tmp_path)) == before, argv
        assert os.listdir(folder) == [], argv


def test_build_kb_reports_bad_stage_files(tmp_path, capsys):
    csm = tmp_path / "t3.csv"
    write_csm_csv(str(csm), table3_records())
    itineraries, events = tmp_path / "it.jsonl", tmp_path / "ev.jsonl"
    code, _, _ = _run(
        capsys, "ingest", "--input", str(csm),
        "--out-itineraries", str(itineraries), "--out-events", str(events),
    )
    assert code == 0
    lines = events.read_text().splitlines()
    build = ("build-kb", "--itineraries", str(itineraries), "--events", str(events),
             "--out", str(tmp_path / "g.kb"))

    events.write_text("\n".join(lines[:5]) + "\n")
    code, _, err = _run(capsys, *build)
    assert code == 1
    assert "error: %s line 1: event 12381 is not in the events file" % itineraries in err
    assert "Traceback" not in err

    events.write_text("\n".join(lines[:1] + ['{"event_id": "12346"}'] + lines[2:]) + "\n")
    code, _, err = _run(capsys, *build)
    assert code == 1
    assert "error: %s line 2: missing field 'container_id'" % events in err

    for bad in ("[]", "[" * 100000):
        events.write_text("\n".join(lines[:2] + [bad] + lines[3:]) + "\n")
        code, _, err = _run(capsys, *build)
        assert code == 1
        assert "error: %s line 3:" % events in err


def test_ingest_strict_and_abort(tmp_path, capsys):
    csm = tmp_path / "t3.csv"
    write_csm_csv(str(csm), table3_records())
    code, stdout, _ = _run(
        capsys,
        "ingest",
        "--input", str(csm),
        "--out-itineraries", str(tmp_path / "it.jsonl"),
        "--out-events", str(tmp_path / "ev.jsonl"),
    )
    assert code == 0
    assert "itineraries=2" in stdout
    assert "bad_check_digits=11" in stdout

    code, stdout, _ = _run(
        capsys,
        "ingest",
        "--input", str(csm),
        "--strict-container-ids",
        "--on-error", "abort",
        "--out-itineraries", str(tmp_path / "it.jsonl"),
        "--out-events", str(tmp_path / "ev.jsonl"),
    )
    assert code == 1


def test_config_file_and_env(tmp_path, capsys, monkeypatch, vocab):
    graph, _ = loop_scenario(vocab)
    kb = tmp_path / "fig5.kb"
    graph.save(str(kb))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threshold_days": 0}))
    monkeypatch.setenv("CARGOKG_CONFIG", str(config))
    code, stdout, _ = _run(capsys, "detect", "loop", "--kb", str(kb), "--quiet")
    assert code == 0
    assert "suspicious=0" in stdout  # gap is 1 day, over the 0-day threshold
    monkeypatch.delenv("CARGOKG_CONFIG")
    code, stdout, _ = _run(capsys, "detect", "loop", "--kb", str(kb), "--quiet")
    assert "suspicious=1" in stdout


def test_pipeline_outputs_deterministic(tmp_path, capsys):
    for name in ("a", "b"):
        sub = tmp_path / name
        os.makedirs(sub)
        code, _, _ = _run(
            capsys,
            "gen",
            "--seed", "7",
            "--itineraries", "40",
            "--ports", "8",
            "--vessels", "5",
            "--out", str(sub / "csm.csv"),
            "--truth", str(sub / "truth.csv"),
        )
        assert code == 0
        code, _, _ = _run(
            capsys,
            "ingest",
            "--input", str(sub / "csm.csv"),
            "--out-itineraries", str(sub / "it.jsonl"),
            "--out-events", str(sub / "ev.jsonl"),
        )
        assert code == 0
        code, _, _ = _run(
            capsys,
            "build-kb",
            "--itineraries", str(sub / "it.jsonl"),
            "--events", str(sub / "ev.jsonl"),
            "--out", str(sub / "graph.kb"),
        )
        assert code == 0
    for name in ("csm.csv", "truth.csv", "it.jsonl", "ev.jsonl", "graph.kb"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes(), name


def test_tiny_bench_subcommand(tmp_path, capsys):
    code, stdout, _ = _run(
        capsys,
        "bench",
        "--sizes", "60",
        "--patterns", "loop",
        "--repetitions", "1",
        "--injected-per-kind", "1",
        "--seed", "3",
        "--out-dir", str(tmp_path / "bench"),
    )
    assert code == 0
    assert "pattern" in stdout
    assert (tmp_path / "bench" / "bench_results.csv").exists()
    assert (tmp_path / "bench" / "bench_table.txt").exists()


def _csv_rows(records):
    return [CSM_CSV_COLUMNS] + [record.to_csv_row() for record in records]


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def test_the_trip_edges_agree_with_the_trip_dump(tmp_path, capsys):
    csm, it, ev, kb, dump = (
        str(tmp_path / n) for n in ("csm.csv", "it.jsonl", "ev.jsonl", "g.kb", "trips.jsonl")
    )
    for argv in (
        ("gen", "--seed", "5", "--itineraries", "40", "--ports", "8", "--vessels", "5",
         "--transshipment-rate", "0.5", "--out", csm, "--truth", str(tmp_path / "truth.csv")),
        ("ingest", "--input", csm, "--out-itineraries", it, "--out-events", ev),
        ("build-kb", "--itineraries", it, "--events", ev, "--out", kb, "--out-trips", dump),
    ):
        assert _run(capsys, *argv)[0] == 0, argv
    graph = KnowledgeGraph.load(kb)
    with open(dump) as fh:
        trips = [json.loads(line) for line in fh]
    assert len(trips) > 10
    assert graph.instances_of("VesselTrip") == sorted(t["trip_id"] for t in trips)
    for trip in trips:
        node = trip["trip_id"]
        assert graph.attrs(node) == {}
        assert graph.objects(node, "hasMO") == (vessel_node(trip["vessel_id"]),)
        for end, role in (("departure", "hasDepartureEvent"), ("arrival", "hasArrivalEvent")):
            assert graph.objects(node, role) == (trip[end + "_event"],)
            (port,) = graph.objects(trip[end + "_event"], "hasLocation")
            assert graph.attrs(port) == trip[end + "_port"], (node, end)
            (stamp,) = graph.objects(trip[end + "_event"], "hasTimestamp")
            assert graph.literal_form(stamp).split()[1] == trip[end + "_time"], (node, end)
    query = parse_query(
        "SELECT ?trip ?d ?a WHERE { ?trip st:hasDepartureEvent ?d ."
        " ?trip st:hasArrivalEvent ?a . ?d st:hasLocation ?p }"
    )
    expected = oracle_evaluate(query, graph)
    assert expected == sorted((t["trip_id"], t["departure_event"], t["arrival_event"]) for t in trips)
    for order in permutations(resolve_names(query, graph)):
        assert sorted(evaluate(query, graph, atom_order=list(order)).rows) == expected, order


def test_a_country_with_a_space_builds_a_graph_that_loads(tmp_path, capsys):
    rows = _csv_rows(table3_records())
    country = CSM_CSV_COLUMNS.index("country")
    for row in rows[1:]:
        if row[country] == "CN":
            row[country] = "C N"
    _write_rows(tmp_path / "csm.csv", rows)
    itineraries, events, kb = tmp_path / "it.jsonl", tmp_path / "ev.jsonl", tmp_path / "g.kb"
    for argv in (
        ("ingest", "--input", str(tmp_path / "csm.csv"),
         "--out-itineraries", str(itineraries), "--out-events", str(events)),
        ("build-kb", "--itineraries", str(itineraries), "--events", str(events),
         "--out", str(kb)),
        ("detect", "loop", "--kb", str(kb), "--quiet"),
    ):
        code, _, err = _run(capsys, *argv)
        assert (code, err) == (0, ""), argv
    assert "port_shangai_c_n" in KnowledgeGraph.load(str(kb)).individuals


def test_an_oversized_csv_field_is_a_row_error(tmp_path, capsys):
    rows = _csv_rows(table3_records())
    rows[3][CSM_CSV_COLUMNS.index("event")] = "x" * 200000
    _write_rows(tmp_path / "csm.csv", rows)
    code, _, err = _run(
        capsys, "ingest", "--input", str(tmp_path / "csm.csv"),
        "--out-itineraries", str(tmp_path / "it.jsonl"),
        "--out-events", str(tmp_path / "ev.jsonl"),
    )
    assert code == 1
    assert "error: row line 4: field larger than field limit" in err


def test_an_oversized_vocabulary_field_is_a_vocabulary_error(tmp_path, capsys):
    csm, vocab = tmp_path / "csm.csv", tmp_path / "vocab.csv"
    write_csm_csv(str(csm), table3_records())
    _write_rows(
        vocab,
        [["carrier_phrase", "reference_leaf", "top_class"], ["x" * 200000, "GateIn", "TripStart"]],
    )
    code, _, err = _run(
        capsys, "ingest", "--input", str(csm), "--vocab", str(vocab),
        "--out-itineraries", str(tmp_path / "it.jsonl"),
        "--out-events", str(tmp_path / "ev.jsonl"),
    )
    assert code == 1
    assert "error: line 2: field larger than field limit" in err


# A small dataset with vessel calls, transshipments and one injected loop,
# as CSV rows, header first.
_BASE_RECORDS = generate(
    GenConfig(seed=3, itinerary_count=8, port_count=5, vessel_count=3,
              transshipment_rate=0.5, injected_loops=1, injected_unnecessary=1)
)[0]
_BASE_ROWS = _csv_rows(_BASE_RECORDS)
_INSERTS = [" ", "  ", "\t", "\n", "\r", "\u00a0", "-", "_", ".", ",", "'", '"', "(", ")",
            "/", "%", "=", "#", "|", ";"]
_EDIT = st.tuples(
    st.integers(min_value=1, max_value=len(_BASE_ROWS) - 1),  # data row
    st.integers(min_value=0, max_value=len(CSM_CSV_COLUMNS) - 1),  # field
    st.one_of(st.sampled_from(_INSERTS), st.none()),  # text to insert; None truncates
    st.integers(min_value=0, max_value=20),  # position
)


def _mutated(edits):
    rows = [list(row) for row in _BASE_ROWS]
    for row, column, text, position in edits:
        value = rows[row][column]
        position = min(position, len(value))
        rows[row][column] = value[:position] if text is None else (
            value[:position] + text + value[position:]
        )
    return rows


def _main_quietly(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(edits=st.lists(_EDIT, min_size=1, max_size=4))
@example(edits=[(row, CSM_CSV_COLUMNS.index("country"), " ", 1) for row in (1, 2, 3)])
def test_mutated_csm_rows_exit_cleanly_and_build_graphs_that_load(edits):
    with tempfile.TemporaryDirectory() as work:
        def at(name):
            return os.path.join(work, name)

        _write_rows(at("csm.csv"), _mutated(edits))
        code = _main_quietly(
            "ingest", "--input", at("csm.csv"),
            "--out-itineraries", at("it.jsonl"), "--out-events", at("ev.jsonl"),
        )
        assert code in (0, 1)
        if code:
            return
        code = _main_quietly(
            "build-kb", "--itineraries", at("it.jsonl"), "--events", at("ev.jsonl"),
            "--out", at("graph.kb"),
        )
        assert code in (0, 1)
        if code:
            return
        KnowledgeGraph.load(at("graph.kb"))
        assert _main_quietly("detect", "loop", "--kb", at("graph.kb"), "--quiet") == 0


def test_a_vocabulary_leaf_holding_whitespace_is_a_vocabulary_error(tmp_path, capsys):
    csm, vocab = tmp_path / "t3.csv", tmp_path / "vocab.csv"
    write_csm_csv(str(csm), table3_records())
    _write_rows(vocab, [["carrier_phrase", "reference_leaf", "top_class"],
                        ["Gate In", "Gate Inn", "TripStart"]])
    code, _, err = _run(
        capsys, "ingest", "--input", str(csm), "--vocab", str(vocab),
        "--out-itineraries", str(tmp_path / "it.jsonl"),
        "--out-events", str(tmp_path / "ev.jsonl"),
    )
    assert code == 1
    assert "error: line 2: reference_leaf 'Gate Inn' holds whitespace" in err


def test_stage_fields_of_the_wrong_type_are_stage_file_errors(tmp_path, capsys):
    csm = tmp_path / "t3.csv"
    write_csm_csv(str(csm), table3_records())
    itineraries, events = tmp_path / "it.jsonl", tmp_path / "ev.jsonl"
    assert _run(capsys, "ingest", "--input", str(csm), "--out-itineraries", str(itineraries),
                "--out-events", str(events))[0] == 0
    build = ("build-kb", "--itineraries", str(itineraries), "--events", str(events),
             "--out", str(tmp_path / "g.kb"))
    originals = {path: path.read_text().splitlines() for path in (itineraries, events)}
    for path, field, value in [
        (events, ("location", "name"), 5),
        (events, ("loading_vessel",), 7),
        (events, ("ref_event",), ["GateIn"]),
        (itineraries, ("source_port", "country"), 1.5),
        (itineraries, ("itinerary_id",), None),
    ]:
        lines = originals[path]
        path.write_text("\n".join([json.dumps(_set(lines[0], field, value))] + lines[1:]) + "\n")
        code, _, err = _run(capsys, *build)
        path.write_text("\n".join(lines) + "\n")
        assert code == 1, field
        assert "error: %s line 1: field %s holds" % (path, ".".join(field)) in err


def test_a_reference_event_outside_its_top_class_is_a_graph_type_error(tmp_path, capsys):
    csm = tmp_path / "t3.csv"
    write_csm_csv(str(csm), table3_records())
    itineraries, events = tmp_path / "it.jsonl", tmp_path / "ev.jsonl"
    assert _run(capsys, "ingest", "--input", str(csm), "--out-itineraries", str(itineraries),
                "--out-events", str(events))[0] == 0
    lines = events.read_text().splitlines()
    first = json.loads(lines[0])
    assert first["top_class"] == "TripStart"
    events.write_text("\n".join([json.dumps(_set(lines[0], ("ref_event",), "TripEnd"))]
                                + lines[1:]) + "\n")
    code, _, err = _run(capsys, "build-kb", "--itineraries", str(itineraries),
                        "--events", str(events), "--out", str(tmp_path / "g.kb"))
    assert code == 1
    assert ("error: event %s: reference event TripEnd resolves to concept TripEnd, outside"
            " its top class TripStart" % first["event_id"]) in err
    assert not (tmp_path / "g.kb").exists()


def _set(line, field, value):
    """The JSON record ``line`` with the (nested) ``field`` set to ``value``."""
    doc = json.loads(line)
    inner = doc
    for name in field[:-1]:
        inner = inner[name]
    inner[field[-1]] = value
    return doc


def test_flags_beat_the_config_file_and_the_file_beats_the_defaults(
    tmp_path, capsys, monkeypatch, vocab
):
    graph, _ = loop_scenario(vocab)
    kb = tmp_path / "fig5.kb"
    graph.save(str(kb))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"threshold_days": 0, "seed": 5}))
    monkeypatch.setenv("CARGOKG_CONFIG", str(config))
    detect = ("detect", "loop", "--kb", str(kb), "--quiet")
    # the loop's gap is 1 day: suspicious at the default 3 days, not at 0
    assert "suspicious=0" in _run(capsys, *detect)[1]
    assert "suspicious=1" in _run(capsys, *detect, "--threshold-days", "1")[1]

    def gen(name, *flags):
        argv = ("gen", "--itineraries", "5", "--ports", "4", "--vessels", "3",
                "--out", str(tmp_path / name)) + flags
        assert _run(capsys, *argv)[0] == 0
        return (tmp_path / name).read_bytes()

    from_file, from_flag = gen("file.csv"), gen("flag.csv", "--seed", "42")
    monkeypatch.delenv("CARGOKG_CONFIG")
    assert gen("default.csv") == from_flag != from_file
    assert gen("five.csv", "--seed", "5") == from_file


@pytest.mark.parametrize("text, message", [
    ('{"threshold_days": "3"}', "config key 'threshold_days' in %s must be an integer"),
    ('{"seed": "x"}', "config key 'seed' in %s must be an integer"),
    ('{"seed": true}', "config key 'seed' in %s must be an integer"),
    ('{"match_window_days": 1.5}', "config key 'match_window_days' in %s must be an integer"),
    ('{"vocabulary": 5}', "config key 'vocabulary' in %s must be a string or null"),
    ("[1, 2]", "config file %s does not hold a JSON object"),
])
def test_config_values_of_the_wrong_type_are_errors(tmp_path, capsys, text, message):
    config = tmp_path / "config.json"
    config.write_text(text)
    code, _, err = _run(capsys, "--config", str(config), "gen", "--itineraries", "5",
                        "--ports", "4", "--vessels", "3", "--out", str(tmp_path / "csm.csv"))
    assert code == 1
    assert "error: " + message % config in err
    assert not (tmp_path / "csm.csv").exists()


def test_a_negative_threshold_is_an_error(tmp_path, capsys, vocab):
    graph, _ = loop_scenario(vocab)
    graph.save(str(tmp_path / "fig5.kb"))
    code, _, err = _run(capsys, "detect", "loop", "--kb", str(tmp_path / "fig5.kb"),
                        "--threshold-days", "-1")
    assert code == 1
    assert "error: threshold_days must be non-negative" in err


# The stage files that ``ingest`` writes for the dataset above, as records,
# and the fields of each that an edit may touch.
_BASE_ITINERARIES = ingest(_BASE_RECORDS, VocabularyMap())[1]
_STAGE_DOCS = {
    "events": [event_to_json(e) for it in _BASE_ITINERARIES for e in it.events],
    "itineraries": [itinerary_to_json(it) for it in _BASE_ITINERARIES],
}
_STAGE_FIELDS = {
    "events": [("event_id",), ("container_id",), ("time",), ("location",),
               ("location", "name"), ("location", "country"), ("ref_event",), ("top_class",),
               ("loading_status",), ("loading_vessel",), ("discharging_vessel",),
               ("vessel_inferred",)],
    "itineraries": [("itinerary_id",), ("container_id",), ("source_port", "name"),
                    ("source_port", "country"), ("destination_port",),
                    ("destination_port", "name"), ("start_time",), ("end_time",),
                    ("completeness",), ("events",)],
}
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.just(1.5), st.text(max_size=6),
    st.sampled_from(["", " ", "Gate Inn", "GateIn", "Port", "Thing", "2010-02-30", "Full",
                     "TripStart", "a\nb", "%", "="]),
    st.lists(st.integers(0, 3), max_size=2), st.just({}), st.just({"name": "X"}),
)
_STAGE_EDIT = st.tuples(
    st.sampled_from(sorted(_STAGE_DOCS)),
    st.integers(min_value=0, max_value=200),  # record, modulo the record count
    st.integers(min_value=0, max_value=20),  # field, modulo the field count
    st.one_of(
        st.tuples(st.just("set"), _JSON_VALUES),
        st.tuples(st.just("insert"), st.sampled_from(_INSERTS), st.integers(0, 20)),
        st.tuples(st.just("truncate"), st.integers(0, 20)),
        st.tuples(st.just("copy"), st.integers(0, 200)),  # another record's value
        st.tuples(st.just("delete")),
    ),
)


def _edited_stage_docs(edits):
    docs = json.loads(json.dumps(_STAGE_DOCS))
    for name, record, field, (op, *arg) in edits:
        records, fields = docs[name], _STAGE_FIELDS[name]
        path = fields[field % len(fields)]
        doc = records[record % len(records)]
        for key in path[:-1]:
            doc = doc.get(key)
            if not isinstance(doc, dict):
                break
        else:
            key = path[-1]
            value = doc.get(key)
            if op == "set":
                doc[key] = arg[0]
            elif op == "delete":
                doc.pop(key, None)
            elif op == "copy":
                source = records[arg[0] % len(records)]
                for part in path:
                    source = source.get(part) if isinstance(source, dict) else None
                doc[key] = source
            elif op == "truncate" and isinstance(value, str):
                doc[key] = value[:arg[0]]
            elif op == "insert" and isinstance(value, str):
                text, position = arg
                doc[key] = value[:position] + text + value[position:]
    return docs


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(edits=st.lists(_STAGE_EDIT, min_size=1, max_size=3))
@example(edits=[("events", 0, 6, ("set", "Gate Inn"))])  # a leaf holding a space
@example(edits=[("events", 0, 4, ("set", 5))])  # a numeric location name
def test_mutated_stage_files_exit_cleanly_and_build_graphs_that_load(edits):
    docs = _edited_stage_docs(edits)
    with tempfile.TemporaryDirectory() as work:
        def at(name):
            return os.path.join(work, name)

        for name, records in docs.items():
            with open(at(name + ".jsonl"), "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(doc, sort_keys=True) + "\n" for doc in records)
        code = _main_quietly(
            "build-kb", "--itineraries", at("itineraries.jsonl"),
            "--events", at("events.jsonl"), "--out", at("graph.kb"),
        )
        assert code in (0, 1)
        if code:
            return
        KnowledgeGraph.load(at("graph.kb"))
        assert _main_quietly("detect", "loop", "--kb", at("graph.kb"), "--quiet") == 0
