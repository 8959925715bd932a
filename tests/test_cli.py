import csv
import json
import os

import pytest

from cargokg.cli import main
from cargokg.events import read_csm_csv, write_csm_csv
from cargokg.patterns import load_query_text
from cargokg.pipeline import run_pipeline

from helpers import loop_scenario, table3_records, unnecessary_scenario


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
    truncated.write_text("cargokg-graph 1 0 0 1\nedge ce_1 hasLocation\n")
    code, _, err = _run(capsys, "detect", "loop", "--kb", str(truncated))
    assert code == 1
    assert "line 2: malformed edge record" in err

    escaped = tmp_path / "escape.kb"
    escaped.write_text("cargokg-graph 1 0 1 0\nindividual port_x Port name=Bad%zzName\n")
    code, _, err = _run(capsys, "detect", "loop", "--kb", str(escaped))
    assert code == 1
    assert "line 2: bad percent-escape" in err and "Traceback" not in err

    qfile = tmp_path / "broken.pq"
    qfile.write_text("SELECT ?x WHERE { ?x a st:Port .")
    code, _, err = _run(capsys, "query", str(qfile), "--kb", str(bad))
    assert code == 1

    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


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
