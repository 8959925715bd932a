"""Command line front door for the pipeline.

Each stage persists its output, so stages are independently re-runnable:

    cargokg gen        --seed 42 --itineraries 5000 ... --out csm.csv
    cargokg ingest     --input csm.csv --out-itineraries it.jsonl --out-events ev.jsonl
    cargokg build-kb   --itineraries it.jsonl --events ev.jsonl --out graph.kb
    cargokg query      loop_filtered.pq --kb graph.kb --bind port=port_x --out rows.csv
    cargokg detect     loop --kb graph.kb --threshold-days 3 --out report.csv
    cargokg bench      --sizes 5000,10000 --out-dir bench/

Knob defaults can come from a JSON config file named by --config or the
CARGOKG_CONFIG environment variable; command line flags win.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, fields
from typing import List, Optional

from . import __version__
from .atomicfile import atomic_write
from .bench import run_suite, results_table, write_results_csv
from .diagnostics import Diagnostics
from .engine import evaluate
from .events import VocabularyMap, load_vocabulary, read_csm_csv, write_csm_csv
# populate stays importable from here: the chain benchmark's tracer test
# checks that its wrapper reaches every module holding the name
from .graph import GraphError, KnowledgeGraph, collector_paused, populate  # noqa: F401
from .linking import DEFAULT_MATCH_WINDOW_DAYS, write_bindings
from .patterns import (
    DEFAULT_DATE_THRESHOLD_DAYS,
    PatternKind,
    Verdict,
    detect as run_detect,
    report_text,
    write_report_csv,
)
from .pipeline import build, ingest
from .queries import Const, atom_ends, parse_query, substitute_nominals
from .segmentation import read_itineraries, write_itineraries
from .synthgen import GenConfig, generate
from .vessels import DEFAULT_CLUSTER_WINDOW_DAYS, write_vessel_stage

log = logging.getLogger("cargokg")

CONFIG_ENV_VAR = "CARGOKG_CONFIG"


@dataclass
class PipelineConfig:
    """Defaults shared by the subcommands; all overridable per flag."""

    threshold_days: int = DEFAULT_DATE_THRESHOLD_DAYS
    cluster_window_days: int = DEFAULT_CLUSTER_WINDOW_DAYS
    match_window_days: int = DEFAULT_MATCH_WINDOW_DAYS
    seed: int = 42
    vocabulary: Optional[str] = None

    @classmethod
    def load(cls, path: Optional[str]) -> "PipelineConfig":
        path = path or os.environ.get(CONFIG_ENV_VAR)
        config = cls()
        if not path:
            return config
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file %s does not hold a JSON object" % path)
        known = {f.name for f in fields(cls)}
        for key, value in data.items():
            if key not in known:
                raise ValueError("unknown config key %r in %s" % (key, path))
            # exact types: a JSON true is a Python int too
            if key == "vocabulary":
                allowed, wanted = (str, type(None)), "a string or null"
            else:
                allowed, wanted = (int,), "an integer"
            if type(value) not in allowed:
                raise ValueError(
                    "config key %r in %s must be %s, not %r" % (key, path, wanted, value)
                )
            setattr(config, key, value)
        return config


_PATTERN_NAMES = {
    "loop": PatternKind.LOOP,
    "loop-intermediate": PatternKind.LOOP_INTERMEDIATE,
    "unnecessary-transshipment": PatternKind.UNNECESSARY_TRANSSHIPMENT,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cargokg",
        description="Container itinerary reconstruction and anomalous "
        "movement pattern detection over CSM streams.",
    )
    parser.add_argument("--version", action="version", version="cargokg " + __version__)
    parser.add_argument("--config", help="JSON config file (or set $%s)" % CONFIG_ENV_VAR)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic CSM dataset")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--itineraries", type=int, required=True)
    gen.add_argument("--ports", type=int, required=True)
    gen.add_argument("--vessels", type=int, required=True)
    gen.add_argument("--transshipment-rate", type=float, default=0.4)
    gen.add_argument("--loops", type=int, default=0, help="injected loop anomalies")
    gen.add_argument(
        "--unnecessary", type=int, default=0, help="injected unnecessary transshipments"
    )
    gen.add_argument("--date-start", default="2009-01-01")
    gen.add_argument("--date-end", default="2011-12-31")
    gen.add_argument("--out", required=True, help="CSM CSV output path")
    gen.add_argument("--truth", help="ground truth CSV output path")

    ingest = sub.add_parser("ingest", help="parse, classify and segment a CSM CSV")
    ingest.add_argument("--input", required=True)
    ingest.add_argument("--vocab", dest="vocabulary",
                        help="vocabulary CSV overriding the built-in table")
    ingest.add_argument("--out-itineraries", required=True)
    ingest.add_argument("--out-events", required=True)
    ingest.add_argument("--strict-container-ids", action="store_true",
                        help="treat ISO 6346 check-digit mismatches as row errors")
    ingest.add_argument("--on-error", choices=("skip", "abort"), default="skip")

    build = sub.add_parser("build-kb", help="reconstruct vessels, link and populate the graph")
    build.add_argument("--itineraries", required=True)
    build.add_argument("--events", required=True)
    build.add_argument("--out", required=True, help="knowledge graph output path")
    build.add_argument("--cluster-window-days", type=int)
    build.add_argument("--match-window-days", type=int)
    build.add_argument("--out-vessel-events", help="vessel event dump (JSONL)")
    build.add_argument("--out-trips", help="vessel trip dump (JSONL)")
    build.add_argument("--out-bindings", help="transshipment binding dump (TSV)")

    query = sub.add_parser("query", help="run a pattern query file against a graph")
    query.add_argument("file", help="query text in the pattern-query dialect")
    query.add_argument("--kb", required=True)
    query.add_argument("--out", help="result CSV (default: stdout)")
    query.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="NAME=NODE",
        help="fix the st:NAME placeholder to an individual, e.g. "
        "port=port_shangai_cn (port display names are accepted too)",
    )

    det = sub.add_parser("detect", help="run a built-in anomaly pattern")
    det.add_argument("pattern", choices=sorted(_PATTERN_NAMES))
    det.add_argument("--kb", required=True)
    det.add_argument("--threshold-days", type=int)
    det.add_argument("--variant", choices=("filtered", "unfiltered"), default="filtered")
    det.add_argument("--out", help="report CSV path")
    det.add_argument("--quiet", action="store_true", help="suppress the text report")

    bench = sub.add_parser("bench", help="scaling benchmark over generated datasets")
    bench.add_argument("--sizes", default="5000,10000,15000,20000",
                       help="comma-separated itinerary counts")
    bench.add_argument("--patterns", default="loop,unnecessary_transshipment")
    bench.add_argument("--repetitions", type=int, default=3)
    bench.add_argument("--threshold-days", type=int)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--injected-per-kind", type=int, default=5)
    bench.add_argument("--timeout-seconds", type=float)
    bench.add_argument("--out-dir", help="directory for results CSV and table")
    return parser


def _cmd_gen(args) -> int:
    from datetime import date

    cfg = GenConfig(
        seed=args.seed,
        itinerary_count=args.itineraries,
        port_count=args.ports,
        vessel_count=args.vessels,
        transshipment_rate=args.transshipment_rate,
        injected_loops=args.loops,
        injected_unnecessary=args.unnecessary,
        date_start=date.fromisoformat(args.date_start),
        date_end=date.fromisoformat(args.date_end),
    )
    records, truth = generate(cfg)
    write_csm_csv(args.out, records)
    log.info("wrote %d CSM records to %s", len(records), args.out)
    if args.truth:
        truth.write_csv(args.truth)
        log.info("wrote %d ground-truth entries to %s", len(truth.entries), args.truth)
    print("records=%d injected=%d" % (len(records), len(truth.entries)))
    return 0


@collector_paused()
def _cmd_ingest(args) -> int:
    vocab = load_vocabulary(args.vocabulary) if args.vocabulary else VocabularyMap()
    diagnostics = Diagnostics()
    records = read_csm_csv(
        args.input,
        strict_check_digit=args.strict_container_ids,
        diagnostics=diagnostics,
        on_error=args.on_error,
    )
    per_container, itineraries = ingest(records, vocab)
    write_itineraries(args.out_itineraries, args.out_events, itineraries)
    print(
        "records=%d containers=%d itineraries=%d skipped_rows=%d "
        "bad_check_digits=%d unmapped_phrases=%d"
        % (
            len(records),
            len(per_container),
            len(itineraries),
            diagnostics.count("skipped_row"),
            diagnostics.count("bad_check_digit"),
            sum(vocab.unmapped.values()),
        )
    )
    return 0


@collector_paused()
def _cmd_build_kb(args) -> int:
    itineraries = read_itineraries(args.itineraries, args.events)
    diagnostics = Diagnostics()
    result = build(itineraries, args.cluster_window_days, args.match_window_days, diagnostics)
    if args.out_vessel_events or args.out_trips:
        write_vessel_stage(
            args.out_vessel_events or os.devnull,
            args.out_trips or os.devnull,
            result.vessel_events,
            result.trips,
        )
    if args.out_bindings:
        write_bindings(args.out_bindings, result.bindings)
    graph = result.graph
    graph.save(args.out)
    counts = graph.count_by_concept()
    print(
        "individuals=%d edges=%d itineraries=%d containers=%d vessels=%d "
        "ports=%d trips=%d bindings=%d unbound_events=%d"
        % (
            len(graph.individuals),
            graph.edge_count(),
            counts.get("ContainerItinerary", 0),
            counts.get("Container", 0),
            counts.get("Vessel", 0),
            counts.get("Port", 0),
            counts.get("VesselTrip", 0),
            len(result.bindings),
            diagnostics.count("unbound_load") + diagnostics.count("unbound_discharge"),
        )
    )
    return 0


def _resolve_binding(graph: KnowledgeGraph, value: str) -> str:
    if value in graph.individuals:
        return value
    if value in graph.port_nominals:
        return graph.port_nominals[value]
    raise GraphError("no individual or port named %r in the graph" % value)


def _cmd_query(args) -> int:
    with open(args.file, encoding="utf-8") as fh:
        query = parse_query(fh.read())
    placeholders = {t.name for a in query.atoms for t in atom_ends(a) if isinstance(t, Const)}
    values = {}
    for item in args.bind:
        name, sep, value = item.partition("=")
        if not sep:
            raise ValueError("--bind expects NAME=NODE, got %r" % item)
        if not name:
            raise ValueError("--bind %r has an empty NAME" % item)
        if name in values:
            raise ValueError("--bind %s is given more than once" % name)
        if name not in placeholders:
            raise ValueError("--bind %s: the query has no st:%s term" % (name, name))
        values[name] = value
    graph = KnowledgeGraph.load(args.kb)
    mapping = {name: _resolve_binding(graph, value) for name, value in values.items()}
    if mapping:
        query = substitute_nominals(query, mapping)
    diagnostics = Diagnostics()
    result = evaluate(query, graph, diagnostics)
    if args.out:
        result.to_csv(args.out)
        print("rows=%d columns=%s" % (len(result.rows), ",".join(result.columns)))
    else:
        result.to_csv(sys.stdout)
    return 0


def _cmd_detect(args) -> int:
    graph = KnowledgeGraph.load(args.kb)
    kind = _PATTERN_NAMES[args.pattern]
    detections = run_detect(kind, graph, threshold_days=args.threshold_days, variant=args.variant)
    if not args.quiet:
        print(report_text(detections), end="")
    if args.out:
        write_report_csv(args.out, detections)
        log.info("wrote %d detections to %s", len(detections), args.out)
    suspicious = sum(1 for d in detections if d.verdict is Verdict.SUSPICIOUS)
    print("detections=%d suspicious=%d" % (len(detections), suspicious))
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(chunk) for chunk in args.sizes.split(",") if chunk.strip()]
    patterns = tuple(p.strip() for p in args.patterns.split(",") if p.strip())
    results = run_suite(
        sizes=sizes,
        patterns=patterns,
        repetitions=args.repetitions,
        threshold_days=args.threshold_days,
        seed=args.seed,
        injected_per_kind=args.injected_per_kind,
        timeout_seconds=args.timeout_seconds,
    )
    table = results_table(results)
    print(table, end="")
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        write_results_csv(os.path.join(args.out_dir, "bench_results.csv"), results)
        with atomic_write(os.path.join(args.out_dir, "bench_table.txt")) as fh:
            fh.write(table)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "ingest": _cmd_ingest,
    "build-kb": _cmd_build_kb,
    "query": _cmd_query,
    "detect": _cmd_detect,
    "bench": _cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s [%(levelname)s] %(name)s: %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = PipelineConfig.load(args.config)
        # the config file fills each knob whose flag was not given
        for f in fields(config):
            if hasattr(args, f.name) and getattr(args, f.name) is None:
                setattr(args, f.name, getattr(config, f.name))
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:  # every typed input error is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
