"""Built-in anomalous-movement detectors: loops and unnecessary transshipments.

A loop: a container is transshipped onto a vessel that swings back through
the itinerary's source port (or, in the intermediate form, any port the
container already visited) before the container reaches its destination.

An unnecessary transshipment: the vessel a container was discharged from at
a transshipment later reaches the container's own destination port, so the
hand-over bought nothing and often hides the shipment's true origin.

A detector is one shipped query template plus the ports its placeholders
range over. ``DETECTORS`` maps each (pattern, variant) to that template and
to its port parameters in binding order, each with the realized ports it
ranges over (ports never touched by an itinerary cannot match). The template
is planned once with its placeholders lifted into parameters, then evaluated
once per anchor port (pair) passed in as a binding. Result rows are grouped
per (anchor, itinerary, end date, vessel date), and the least row of each
group, its values read in variable-name order, gives the evidence.

``make_detection`` turns a match into a Detection carrying evidence and a
date gap between the container's end and the vessel's return/arrival, and
``judge`` gives the verdicts and the order: raw matches with a wide gap are
almost always sequence gaps rather than anomalies, so a threshold partitions
them into Suspicious and PrunedByDate. The procedural scanners
(``cargokg.scanners``) end through the same two functions.

The date-filtered templates are the primary path; the unfiltered forms stay
available for benchmark parity. They do not ask the same thing in every case
(see ``_direction_holds``).
"""

import time
from dataclasses import dataclass
from datetime import date
from enum import Enum
from importlib import resources
from itertools import product
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from .atomicfile import atomic_write
from .diagnostics import Diagnostics
from .engine import evaluate_rows
from .graph import KnowledgeGraph
from .queries import PatternQuery, Var, parse_query, substitute_nominals

DEFAULT_DATE_THRESHOLD_DAYS = 3


class PatternKind(Enum):
    LOOP = "Loop"
    LOOP_INTERMEDIATE = "LoopIntermediate"
    UNNECESSARY_TRANSSHIPMENT = "UnnecessaryTransshipment"


class Verdict(Enum):
    SUSPICIOUS = "Suspicious"
    PRUNED_BY_DATE = "PrunedByDate"


class DetectTimeout(Exception):
    """Raised when a detection run exceeds its deadline."""


@dataclass
class Evidence:
    container_id: str = ""
    transshipment_event_id: str = ""
    transshipment_port: str = ""
    vessel1: str = ""
    vessel2: str = ""
    port_p1: str = ""
    port_px: str = ""
    container_end_date: Optional[date] = None
    vessel_date: Optional[date] = None


@dataclass
class Detection:
    itinerary_id: str
    kind: PatternKind
    evidence: Evidence
    date_gap_days: Optional[int] = None
    verdict: Optional[Verdict] = None
    verdict_reason: str = ""

    def key(self) -> Tuple:
        return (
            self.kind.value,
            self.itinerary_id,
            self.evidence.port_p1,
            self.evidence.container_end_date,
            self.evidence.vessel_date,
        )

    def sort_key(self) -> Tuple:
        return (
            self.kind.value,
            self.itinerary_id,
            self.evidence.port_p1,
            self.evidence.container_end_date or date.min,
            self.evidence.vessel_date or date.min,
        )


# ---------------------------------------------------------------------------
# Detectors: only ports realized by some itinerary can match


def realized_source_ports(graph: KnowledgeGraph) -> List[str]:
    return sorted({o for _, o in graph.role_pairs("hasCISourcePort")})


def realized_destination_ports(graph: KnowledgeGraph) -> List[str]:
    return sorted({o for _, o in graph.role_pairs("hasCIDestinationPort")})


def realized_visited_ports(graph: KnowledgeGraph) -> List[str]:
    ports: Set[str] = set()
    for _, event in graph.role_pairs("hasContainerEvent"):
        ports.update(graph.objects(event, "hasLocation"))
    return sorted(ports)


Anchors = Dict[str, Callable[[KnowledgeGraph], List[str]]]

# (pattern, variant) -> (template, its port parameters in binding order, each
# with the realized ports it ranges over). A loop's first parameter is its p1.
# Every other parameter, and the only one of unnecessary transshipment, is
# tied in its template to the itinerary's destination, which the evidence
# reads directly. The pair form of Loop is anchored at (source, destination)
# pairs, and LoopIntermediate only exists date-filtered.
_LOOP_INTERMEDIATE: Tuple[str, Anchors] = (
    "loop_intermediate", {"port": realized_visited_ports}
)
DETECTORS: Dict[Tuple[PatternKind, str], Tuple[str, Anchors]] = {
    (PatternKind.LOOP, "filtered"): ("loop_filtered", {"port": realized_source_ports}),
    (PatternKind.LOOP, "unfiltered"): (
        "loop",
        {"port1": realized_source_ports, "port2": realized_destination_ports},
    ),
    (PatternKind.LOOP_INTERMEDIATE, "filtered"): _LOOP_INTERMEDIATE,
    (PatternKind.LOOP_INTERMEDIATE, "unfiltered"): _LOOP_INTERMEDIATE,
    (PatternKind.UNNECESSARY_TRANSSHIPMENT, "filtered"): (
        "unnecessary_transshipment", {"port": realized_destination_ports}
    ),
    (PatternKind.UNNECESSARY_TRANSSHIPMENT, "unfiltered"): (
        "unnecessary_transshipment_unfiltered", {"port": realized_destination_ports}
    ),
}

_template_cache: Dict[str, PatternQuery] = {}


def load_query_text(name: str) -> str:
    """The raw text of a shipped query template."""
    if name not in (template for template, _ in DETECTORS.values()):
        raise KeyError(name)  # the name becomes a file path
    return resources.files("cargokg.data").joinpath(name + ".pq").read_text("utf-8")


def load_query(name: str) -> PatternQuery:
    if name not in _template_cache:
        _template_cache[name] = parse_query(load_query_text(name))
    return _template_cache[name]


# ---------------------------------------------------------------------------
# Detection


def _date_of(graph: KnowledgeGraph, node: str) -> Optional[date]:
    try:
        return date.fromisoformat(graph.literal_form(node)[4:14])
    except ValueError:
        return None


def _event_date(graph: KnowledgeGraph, event_node: str) -> Optional[date]:
    stamps = graph.objects(event_node, "hasTimestamp")
    return _date_of(graph, stamps[0]) if stamps else None


def _label(graph: KnowledgeGraph, node: str) -> str:
    return graph.attr(node, "label") or node


def _port_name(graph: KnowledgeGraph, node: str) -> str:
    return graph.attr(node, "name") or node


def _vessel_of(graph: KnowledgeGraph, vessel_event: str) -> str:
    vessels = graph.objects(vessel_event, "hasMO")
    return _label(graph, vessels[0]) if vessels else ""


def _adjacent_vessel(graph: KnowledgeGraph, event: str, direction: str, role: str) -> str:
    neighbours = (
        graph.subjects(event, "hasNextEvent")
        if direction == "before"
        else graph.objects(event, "hasNextEvent")
    )
    for n in neighbours:
        vessels = graph.objects(n, role)
        if vessels:
            return _label(graph, vessels[0])
    return ""


def make_detection(
    graph: KnowledgeGraph,
    kind: PatternKind,
    ci: str,
    t: str,
    v: str,
    p1_node: Optional[str],
    end_date: Optional[date],
    vessel_date: Optional[date],
) -> Detection:
    """The Detection of one match, before its verdict: itinerary ``ci``, its
    transshipment event ``t`` and the vessel event ``v`` that event names.

    ``p1_node`` is a loop's anchor port, None for unnecessary transshipment;
    the evidence's px is always the itinerary's destination. Both the query
    detectors and the procedural scanners build their detections here.
    """
    if kind is PatternKind.UNNECESSARY_TRANSSHIPMENT:
        vessel1 = _vessel_of(graph, v)
        vessel2 = _adjacent_vessel(graph, t, "after", "hasLoadingVessel")
    else:
        vessel2 = _vessel_of(graph, v)
        vessel1 = _adjacent_vessel(graph, t, "before", "hasDischargingVessel")
    containers = graph.objects(ci, "hasMO")
    t_ports = graph.objects(t, "hasLocation")
    dests = graph.objects(ci, "hasCIDestinationPort")
    evidence = Evidence(
        container_id=(graph.attr(containers[0], "label") or "") if containers else "",
        transshipment_event_id=_label(graph, t),
        transshipment_port=_port_name(graph, t_ports[0]) if t_ports else "",
        vessel1=vessel1,
        vessel2=vessel2,
        port_p1=_port_name(graph, p1_node) if p1_node else "",
        port_px=_port_name(graph, dests[0]) if dests else "",
        container_end_date=end_date,
        vessel_date=vessel_date,
    )
    gap = None
    if end_date is not None and vessel_date is not None:
        gap = (vessel_date - end_date).days
    return Detection(
        itinerary_id=_label(graph, ci), kind=kind, evidence=evidence, date_gap_days=gap
    )


def _direction_holds(kind: PatternKind, end: Optional[date], vessel: Optional[date]) -> bool:
    """The pattern's inherent date direction: a loop return happens before
    the itinerary ends, an unnecessary-transshipment arrival after it.

    The date-filtered query forms enforce this inside the join; for the
    unfiltered forms it is applied here, after the join. For unnecessary
    transshipment both forms then give the same detections. For Loop they
    ask different things after the vessel's return to p1: the filtered form
    asks for a later discharge of the container from that vessel, dated
    after the return; the pair form asks only that the vessel later call at
    the itinerary's destination port. So the pair form can report a loop
    the filtered form does not (at seed 7 with 300 itineraries: port
    PORT0066, gap -42 d, PrunedByDate).
    """
    if end is None or vessel is None:
        return True  # kept; MissingDate routing happens at pruning
    if kind is PatternKind.UNNECESSARY_TRANSSHIPMENT:
        return vessel > end
    return vessel < end


def _rows_to_detections(
    graph: KnowledgeGraph,
    kind: PatternKind,
    rows: List[Dict[str, str]],
    anchors: Anchors,
) -> List[Detection]:
    """Group full binding rows by (anchor ports, itinerary, end date, vessel
    date) — per anchor, the identity the projected DISTINCT form would give —
    and keep one canonical evidence row per group: the least row, its values
    read in variable-name order."""
    if not rows:
        return []
    rank = itemgetter(*sorted(rows[0]))  # every row binds the same variables
    groups: Dict[Tuple, Tuple[Tuple[str, ...], Dict[str, str]]] = {}
    for row in rows:
        end = _date_of(graph, row["cd"])
        vessel = _event_date(graph, row["v1"])
        if not _direction_holds(kind, end, vessel):
            continue
        key = (tuple(row[name] for name in anchors), row["c"], end, vessel)
        candidate = (rank(row), row)
        best = groups.get(key)
        if best is None or candidate[0] < best[0]:
            groups[key] = candidate
    p1 = None if kind is PatternKind.UNNECESSARY_TRANSSHIPMENT else next(iter(anchors))
    return [
        make_detection(
            graph, kind, row["c"], row["t"], row["v"], row[p1] if p1 else None, end, vessel
        )
        for (_, _, end, vessel), (_, row) in sorted(groups.items(), key=lambda kv: kv[0][:2])
    ]


def detect(
    kind: PatternKind,
    graph: KnowledgeGraph,
    threshold_days: int = DEFAULT_DATE_THRESHOLD_DAYS,
    variant: str = "filtered",
    deadline_seconds: Optional[float] = None,
    diagnostics: Optional[Diagnostics] = None,
) -> List[Detection]:
    """Run one pattern over all realized port nominals.

    Every matching (anchor, itinerary, container end, vessel return/arrival)
    becomes exactly one Detection; the threshold assigns the verdict.
    ``deadline_seconds`` bounds the wall time (DetectTimeout on expiry,
    checked between anchors).
    """
    if threshold_days < 0:
        raise ValueError("threshold_days must be non-negative")
    if (kind, variant) not in DETECTORS:
        raise ValueError("no detector for pattern %r, variant %r" % (kind, variant))
    started = time.monotonic()
    template_name, anchors = DETECTORS[kind, variant]
    template = substitute_nominals(
        load_query(template_name), {name: Var(name) for name in anchors}
    )
    ranges = [realized(graph) for realized in anchors.values()]

    def bindings() -> Iterator[Dict[str, str]]:
        for ports in product(*ranges):
            if len(set(ports)) < len(ports):
                continue  # a loop never starts and ends at one port
            if deadline_seconds is not None and time.monotonic() - started > deadline_seconds:
                raise DetectTimeout(kind.value)
            yield dict(zip(anchors, ports))

    rows = evaluate_rows(template, graph, diagnostics, bindings())
    return judge(_rows_to_detections(graph, kind, rows, anchors), threshold_days)


def prune_by_date(
    detections: Iterable[Detection], threshold_days: int
) -> Tuple[List[Detection], List[Detection]]:
    """Partition detections by |date gap| <= threshold (inclusive).

    A detection missing either date cannot be confirmed and is routed to the
    pruned side with a MissingDate marker. Order is preserved within each
    side; every input lands on exactly one side.
    """
    suspicious: List[Detection] = []
    pruned: List[Detection] = []
    for det in detections:
        if det.date_gap_days is None:
            det.verdict = Verdict.PRUNED_BY_DATE
            det.verdict_reason = "MissingDate"
            pruned.append(det)
        elif abs(det.date_gap_days) <= threshold_days:
            det.verdict = Verdict.SUSPICIOUS
            det.verdict_reason = "gap %dd within %dd" % (
                det.date_gap_days,
                threshold_days,
            )
            suspicious.append(det)
        else:
            det.verdict = Verdict.PRUNED_BY_DATE
            det.verdict_reason = "gap %dd exceeds %dd" % (
                det.date_gap_days,
                threshold_days,
            )
            pruned.append(det)
    return suspicious, pruned


def judge(detections: Iterable[Detection], threshold_days: int) -> List[Detection]:
    """Give every detection its verdict (``prune_by_date``); all of them, in
    ``Detection.sort_key`` order."""
    suspicious, pruned = prune_by_date(detections, threshold_days)
    return sorted(suspicious + pruned, key=Detection.sort_key)


# ---------------------------------------------------------------------------
# Reporting

REPORT_COLUMNS = [
    "pattern",
    "itinerary",
    "container",
    "p1",
    "px_or_p",
    "vessel1",
    "vessel2",
    "container_date",
    "vessel_date",
    "gap_days",
    "verdict",
]


def detection_row(det: Detection) -> List[str]:
    ev = det.evidence
    return [
        det.kind.value,
        det.itinerary_id,
        ev.container_id,
        ev.port_p1,
        ev.port_px,
        ev.vessel1,
        ev.vessel2,
        ev.container_end_date.isoformat() if ev.container_end_date else "",
        ev.vessel_date.isoformat() if ev.vessel_date else "",
        "" if det.date_gap_days is None else str(det.date_gap_days),
        det.verdict.value if det.verdict else "",
    ]


def write_report_csv(path: str, detections: Sequence[Detection]) -> None:
    import csv

    ordered = sorted(detections, key=Detection.sort_key)
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for det in ordered:
            writer.writerow(detection_row(det))


def report_text(detections: Sequence[Detection]) -> str:
    """Human-readable summary: per-pattern counts, per-port breakdown, rows."""
    ordered = sorted(detections, key=Detection.sort_key)
    lines: List[str] = []
    counts: Dict[Tuple[str, str], int] = {}
    for det in ordered:
        verdict = det.verdict.value if det.verdict else "?"
        counts[(det.kind.value, verdict)] = counts.get((det.kind.value, verdict), 0) + 1
    lines.append("Anomaly report")
    lines.append("==============")
    for kind in PatternKind:
        suspicious = counts.get((kind.value, Verdict.SUSPICIOUS.value), 0)
        pruned = counts.get((kind.value, Verdict.PRUNED_BY_DATE.value), 0)
        lines.append(
            "%-26s suspicious: %-5d pruned-by-date: %d"
            % (kind.value, suspicious, pruned)
        )
    pair_counts: Dict[Tuple[str, str, str], int] = {}
    for det in ordered:
        key = (det.kind.value, det.evidence.port_p1, det.evidence.port_px)
        pair_counts[key] = pair_counts.get(key, 0) + 1
    if pair_counts:
        lines.append("")
        lines.append("Per port pair:")
        for (kind, p1, px), n in sorted(pair_counts.items()):
            lines.append("  %-26s %-14s -> %-14s %d" % (kind, p1 or "-", px or "-", n))
    if ordered:
        lines.append("")
        lines.append(" | ".join(REPORT_COLUMNS))
        for det in ordered:
            lines.append(" | ".join(detection_row(det)))
    return "\n".join(lines) + "\n"
