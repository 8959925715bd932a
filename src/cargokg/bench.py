"""Scaling harness over generated datasets of increasing itinerary counts.

For each requested size the harness generates a dataset with the reference
port/vessel cardinalities, runs the full preparation pipeline once, then
times every (pattern, variant) cell over the shared sealed graph. Cells run
sequentially for clean timing.

Absolute times from other stacks are explicitly not targets; what the
harness is for is orderings (date-filtered variants beat unfiltered ones)
and growth curves (sub-quadratic in itinerary count, because the number of
ports saturates while itineraries grow).

Detections found are reported as the number of Suspicious verdicts; for a
fixed dataset that count is identical across variants and repetitions
(performance knobs never change answers).

A cell's memory figure is the process's peak RSS so far, read after the
cell: it covers every earlier size and cell too, so it never decreases
from one cell to the next. A cell's time is the median over its
repetitions; with one repetition it includes the first call's cache fill
(the parsed template and the shared graph's lazily built instance,
branching and alias-adjacency maps).
"""

import csv
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .patterns import DEFAULT_DATE_THRESHOLD_DAYS, DetectTimeout, PatternKind, Verdict, detect
from .pipeline import run_pipeline
from .synthgen import GenConfig, generate

# Reference cardinalities (ports, vessels) per itinerary count; other sizes
# follow the same saturating power laws.
TABLE_CARDINALITIES: Dict[int, Tuple[int, int]] = {
    5000: (565, 841),
    10000: (593, 960),
    15000: (604, 1023),
    20000: (618, 1078),
}

_PORT_EXPONENT = 0.0648
_VESSEL_EXPONENT = 0.1790


def cardinalities_for(itinerary_count: int) -> Tuple[int, int]:
    if itinerary_count in TABLE_CARDINALITIES:
        return TABLE_CARDINALITIES[itinerary_count]
    scale = itinerary_count / 5000.0
    ports = max(3, round(565 * scale ** _PORT_EXPONENT))
    vessels = max(2, round(841 * scale ** _VESSEL_EXPONENT))
    ports = min(ports, max(3, itinerary_count))
    vessels = min(vessels, max(2, itinerary_count))
    return ports, vessels


@dataclass
class BenchResult:
    dataset_label: str
    itinerary_count: int
    pattern: str
    variant: str
    repetitions: int
    median_seconds: float
    detections_found: int
    peak_memory_kb: int  # process peak RSS so far: never decreases across cells
    status: str  # "ok" or "dnf"


PATTERN_VARIANTS = {
    "loop": [
        ("loop", PatternKind.LOOP, "filtered"),
        ("loop", PatternKind.LOOP, "unfiltered"),
        ("loop", PatternKind.LOOP_INTERMEDIATE, "intermediate"),
    ],
    "unnecessary_transshipment": [
        ("unnecessary_transshipment", PatternKind.UNNECESSARY_TRANSSHIPMENT, "filtered"),
        ("unnecessary_transshipment", PatternKind.UNNECESSARY_TRANSSHIPMENT, "unfiltered"),
    ],
}


def _peak_memory_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_suite(
    sizes: Sequence[int] = (5000, 10000, 15000, 20000),
    patterns: Sequence[str] = ("loop", "unnecessary_transshipment"),
    repetitions: int = 3,
    threshold_days: int = DEFAULT_DATE_THRESHOLD_DAYS,
    seed: int = 42,
    injected_per_kind: int = 5,
    timeout_seconds: Optional[float] = None,
    transshipment_rate: float = 0.5,
) -> List[BenchResult]:
    """Benchmark every (size, pattern, variant) cell; a timed-out cell is
    recorded as DNF and the run continues."""
    for name in patterns:
        if name not in PATTERN_VARIANTS:
            raise ValueError("unknown pattern %r" % name)
    results: List[BenchResult] = []
    for size in sizes:
        ports, vessels = cardinalities_for(size)
        label = "gen%dK" % (size // 1000) if size % 1000 == 0 else "gen%d" % size
        injected = injected_per_kind if 4 * injected_per_kind <= size else 0
        cfg = GenConfig(
            seed=seed,
            itinerary_count=size,
            port_count=ports,
            vessel_count=vessels,
            transshipment_rate=transshipment_rate,
            injected_loops=injected,
            injected_unnecessary=injected,
        )
        records, _ = generate(cfg)
        shared = run_pipeline(records)
        for name in patterns:
            for pattern, kind, variant in PATTERN_VARIANTS[name]:
                times: List[float] = []
                suspicious = 0
                status = "ok"
                for _ in range(max(1, repetitions)):
                    started = time.perf_counter()
                    try:
                        detections = detect(
                            kind,
                            shared.graph,
                            threshold_days=threshold_days,
                            variant="unfiltered" if variant == "unfiltered" else "filtered",
                            deadline_seconds=timeout_seconds,
                        )
                    except DetectTimeout:
                        status = "dnf"
                        times.append(time.perf_counter() - started)
                        break
                    times.append(time.perf_counter() - started)
                    suspicious = sum(
                        1 for d in detections if d.verdict is Verdict.SUSPICIOUS
                    )
                results.append(
                    BenchResult(
                        dataset_label=label,
                        itinerary_count=size,
                        pattern=pattern,
                        variant=variant,
                        repetitions=len(times),
                        median_seconds=statistics.median(times),
                        detections_found=suspicious if status == "ok" else -1,
                        peak_memory_kb=_peak_memory_kb(),
                        status=status,
                    )
                )
    return results


CSV_COLUMNS = [
    "dataset",
    "itineraries",
    "pattern",
    "variant",
    "repetitions",
    "median_seconds",
    "detections_found",
    "peak_memory_kb",
    "status",
]


def write_results_csv(path: str, results: Sequence[BenchResult]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in results:
            writer.writerow(
                [
                    r.dataset_label,
                    r.itinerary_count,
                    r.pattern,
                    r.variant,
                    r.repetitions,
                    "%.3f" % r.median_seconds,
                    r.detections_found,
                    r.peak_memory_kb,
                    r.status,
                ]
            )


def results_table(results: Sequence[BenchResult]) -> str:
    """Text table: one row per (pattern, variant), one column per size."""
    sizes = sorted({r.itinerary_count for r in results})
    cells: Dict[Tuple[str, str], Dict[int, BenchResult]] = {}
    for r in results:
        cells.setdefault((r.pattern, r.variant), {})[r.itinerary_count] = r
    lines = []
    header = "%-26s %-13s" % ("pattern", "variant") + "".join(
        "%12s" % ("%dK itin" % (s // 1000) if s % 1000 == 0 else str(s)) for s in sizes
    )
    lines.append(header)
    lines.append("-" * len(header))
    for (pattern, variant) in sorted(cells):
        row = "%-26s %-13s" % (pattern, variant)
        for size in sizes:
            r = cells[(pattern, variant)].get(size)
            if r is None:
                row += "%12s" % "-"
            elif r.status == "dnf":
                row += "%12s" % "DNF"
            else:
                row += "%12s" % ("%.2fs" % r.median_seconds)
        lines.append(row)
    counts = sorted(
        {
            (r.pattern, r.itinerary_count, r.detections_found)
            for r in results
            if r.status == "ok"
        }
    )
    lines.append("")
    for pattern in sorted({p for p, _, _ in counts}):
        per_size = ["%d: %d" % (s, c) for p, s, c in counts if p == pattern]
        lines.append("suspicious %s per size: %s" % (pattern, ", ".join(per_size)))
    return "\n".join(lines) + "\n"
