"""Built-in anomalous-movement detectors: loops and unnecessary transshipments.

A loop: a container is transshipped onto a vessel that swings back through
the itinerary's source port (or, in the intermediate form, any port the
container already visited) before the container reaches its destination.

An unnecessary transshipment: the vessel a container was discharged from at
a transshipment later reaches the container's own destination port, so the
hand-over bought nothing and often hides the shipment's true origin.

Both detectors run the shipped query templates with their port placeholders
lifted into parameters: the template is planned once, then evaluated once
per realized anchor port (ports never touched by an itinerary cannot match
and are skipped) passed in as a binding. Result rows become Detections
carrying evidence and a date gap between the container's end and the
vessel's return/arrival. Raw matches with a wide gap are almost always
sequence gaps rather than anomalies, so a threshold partitions them into
Suspicious and PrunedByDate.

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
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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
class PatternSpec:
    """A detection request; ports pin the nominals, None means iterate."""

    kind: PatternKind
    port_p1: Optional[str] = None
    port_px: Optional[str] = None
    date_threshold_days: int = DEFAULT_DATE_THRESHOLD_DAYS

    def __post_init__(self):
        if self.date_threshold_days < 0:
            raise ValueError("date_threshold_days must be non-negative")
        if (
            self.kind in (PatternKind.LOOP, PatternKind.LOOP_INTERMEDIATE)
            and self.port_p1 is not None
            and self.port_px is not None
            and self.port_p1 == self.port_px
        ):
            raise ValueError("loop patterns need two distinct ports")


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
# Query templates

_TEMPLATE_FILES = {
    "loop": "loop.pq",
    "loop_filtered": "loop_filtered.pq",
    "loop_intermediate": "loop_intermediate.pq",
    "unnecessary_transshipment": "unnecessary_transshipment.pq",
    "unnecessary_transshipment_unfiltered": "unnecessary_transshipment_unfiltered.pq",
}

_template_cache: Dict[str, PatternQuery] = {}


def load_query_text(name: str) -> str:
    """The raw text of a shipped query template."""
    filename = _TEMPLATE_FILES[name]
    return resources.files("cargokg.data").joinpath(filename).read_text("utf-8")


def load_query(name: str) -> PatternQuery:
    if name not in _template_cache:
        _template_cache[name] = parse_query(load_query_text(name))
    return _template_cache[name]


def template_for(kind: PatternKind, variant: str) -> str:
    if variant not in ("filtered", "unfiltered"):
        raise ValueError("variant must be 'filtered' or 'unfiltered'")
    if kind is PatternKind.LOOP:
        return "loop_filtered" if variant == "filtered" else "loop"
    if kind is PatternKind.LOOP_INTERMEDIATE:
        return "loop_intermediate"  # only exists date-filtered
    return (
        "unnecessary_transshipment"
        if variant == "filtered"
        else "unnecessary_transshipment_unfiltered"
    )


# ---------------------------------------------------------------------------
# Anchors: only ports realized by some itinerary can match


def realized_source_ports(graph: KnowledgeGraph) -> List[str]:
    return sorted({o for _, o in graph.role_pairs("hasCISourcePort")})


def realized_destination_ports(graph: KnowledgeGraph) -> List[str]:
    return sorted({o for _, o in graph.role_pairs("hasCIDestinationPort")})


def realized_visited_ports(graph: KnowledgeGraph) -> List[str]:
    ports: Set[str] = set()
    for _, event in graph.role_pairs("hasContainerEvent"):
        ports.update(graph.objects(event, "hasLocation"))
    return sorted(ports)


# Per template, its port parameters in binding order: parameter → (the
# PatternSpec field that pins it, the realized ports it otherwise ranges
# over). The pair form of Loop is anchored at (source, destination) pairs.
_ANCHORS: Dict[str, Dict[str, Tuple[str, Callable[[KnowledgeGraph], List[str]]]]] = {
    "loop_filtered": {"port": ("port_p1", realized_source_ports)},
    "loop": {
        "port1": ("port_p1", realized_source_ports),
        "port2": ("port_px", realized_destination_ports),
    },
    "loop_intermediate": {"port": ("port_p1", realized_visited_ports)},
    "unnecessary_transshipment": {"port": ("port_px", realized_destination_ports)},
    "unnecessary_transshipment_unfiltered": {
        "port": ("port_px", realized_destination_ports)
    },
}


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


def _port_name(graph: KnowledgeGraph, node: str) -> str:
    return graph.attr(node, "name") or node


def _vessel_of(graph: KnowledgeGraph, vessel_event: str) -> str:
    vessels = graph.objects(vessel_event, "hasMO")
    if not vessels:
        return ""
    return graph.attr(vessels[0], "label") or vessels[0]


def _adjacent_vessel(graph: KnowledgeGraph, event: str, direction: str, role: str) -> str:
    neighbours = (
        graph.subjects(event, "hasNextEvent")
        if direction == "before"
        else graph.objects(event, "hasNextEvent")
    )
    for n in neighbours:
        vessels = graph.objects(n, role)
        if vessels:
            return graph.attr(vessels[0], "label") or vessels[0]
    return ""


def _build_detection(
    graph: KnowledgeGraph,
    kind: PatternKind,
    row: Dict[str, str],
    p1_node: str,
    px_node: Optional[str],
) -> Detection:
    ci = row["c"]
    end_date = _date_of(graph, row["cd"])
    vessel_date = _event_date(graph, row["v1"])
    t = row["t"]
    container_nodes = graph.objects(ci, "hasMO")
    container = (
        graph.attr(container_nodes[0], "label") if container_nodes else ""
    ) or ""
    if kind is PatternKind.UNNECESSARY_TRANSSHIPMENT:
        vessel1 = _vessel_of(graph, row["v"])
        vessel2 = _adjacent_vessel(graph, t, "after", "hasLoadingVessel")
    else:
        vessel2 = _vessel_of(graph, row["v"])
        vessel1 = _adjacent_vessel(graph, t, "before", "hasDischargingVessel")
    t_ports = graph.objects(t, "hasLocation")
    if px_node is None:
        dests = graph.objects(ci, "hasCIDestinationPort")
        px_node = dests[0] if dests else None
    is_ut = kind is PatternKind.UNNECESSARY_TRANSSHIPMENT
    evidence = Evidence(
        container_id=container,
        transshipment_event_id=graph.attr(t, "label") or t,
        transshipment_port=_port_name(graph, t_ports[0]) if t_ports else "",
        vessel1=vessel1,
        vessel2=vessel2,
        port_p1="" if is_ut else _port_name(graph, p1_node),
        port_px=_port_name(graph, px_node) if px_node else "",
        container_end_date=end_date,
        vessel_date=vessel_date,
    )
    gap = None
    if end_date is not None and vessel_date is not None:
        gap = (vessel_date - end_date).days
    return Detection(
        itinerary_id=graph.attr(ci, "label") or ci,
        kind=kind,
        evidence=evidence,
        date_gap_days=gap,
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
    anchors: Dict[str, Tuple[str, Callable]],
) -> List[Detection]:
    """Group full binding rows by (anchor ports, itinerary, end date, vessel
    date) — per anchor, the identity the projected DISTINCT form would give —
    and keep one canonical evidence row per group."""
    groups: Dict[Tuple, Dict[str, str]] = {}
    for row in rows:
        end = _date_of(graph, row["cd"])
        vessel = _event_date(graph, row["v1"])
        if not _direction_holds(kind, end, vessel):
            continue
        key = (tuple(row[name] for name in anchors), row["c"], end, vessel)
        best = groups.get(key)
        candidate_rank = tuple(row[k] for k in sorted(row))
        if best is None or candidate_rank < tuple(best[k] for k in sorted(best)):
            groups[key] = row
    detections = []
    for _, row in sorted(groups.items(), key=lambda kv: kv[0][:2]):
        ports = {field: row[name] for name, (field, _) in anchors.items()}
        detections.append(
            _build_detection(graph, kind, row, ports.get("port_p1"), ports.get("port_px"))
        )
    return detections


def detect(
    kind: PatternKind,
    graph: KnowledgeGraph,
    threshold_days: int = DEFAULT_DATE_THRESHOLD_DAYS,
    variant: str = "filtered",
    spec: Optional[PatternSpec] = None,
    deadline_seconds: Optional[float] = None,
    diagnostics: Optional[Diagnostics] = None,
) -> List[Detection]:
    """Run one pattern over all realized port nominals.

    Every matching (anchor, itinerary, container end, vessel return/arrival)
    becomes exactly one Detection; the threshold assigns the verdict.
    ``deadline_seconds`` bounds the wall time (DetectTimeout on expiry,
    checked between anchors).
    """
    if spec is None:
        spec = PatternSpec(kind, date_threshold_days=threshold_days)
    started = time.monotonic()
    template_name = template_for(kind, variant)
    anchors = _ANCHORS[template_name]
    template = substitute_nominals(
        load_query(template_name), {name: Var(name) for name in anchors}
    )
    ranges = [
        [getattr(spec, field)] if getattr(spec, field) else realized(graph)
        for field, realized in anchors.values()
    ]

    def bindings() -> Iterator[Dict[str, str]]:
        for ports in product(*ranges):
            if len(set(ports)) < len(ports):
                continue  # a loop never starts and ends at one port
            if deadline_seconds is not None and time.monotonic() - started > deadline_seconds:
                raise DetectTimeout(kind.value)
            yield dict(zip(anchors, ports))

    rows = evaluate_rows(template, graph, diagnostics, bindings())
    detections = _rows_to_detections(graph, kind, rows, anchors)
    suspicious, pruned = prune_by_date(detections, spec.date_threshold_days)
    merged = suspicious + pruned
    merged.sort(key=Detection.sort_key)
    return merged


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
