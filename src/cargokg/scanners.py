"""Procedural pattern scanners: a second, query-free implementation.

Each scanner walks itineraries and vessel event chains directly with plain
loops and single-step edge lookups, re-deriving the same detections the
query-based detectors produce. They exist to cross-check the query engine
(and vice versa): both routes must agree on every dataset, so a bug in
either one surfaces as a mismatch instead of silently wrong output.

Scanners mirror the detectors' semantics exactly, including the date
direction conditions of the filtered query forms and the grouping of
matches by (itinerary, container end date, vessel date).
"""

from datetime import date
from typing import Dict, List, Optional, Set, Tuple

from .graph import KnowledgeGraph
from .patterns import (
    DEFAULT_DATE_THRESHOLD_DAYS,
    Detection,
    Evidence,
    PatternKind,
    _adjacent_vessel,
    _date_of,
    _port_name,
    _vessel_of,
    prune_by_date,
)


def _chain_after(graph: KnowledgeGraph, node: str) -> List[str]:
    """Follow direct successor edges from a vessel event to the chain end."""
    out: List[str] = []
    seen: Set[str] = set()
    cursor = node
    while True:
        nexts = graph.objects(cursor, "hasNextEvent")
        if not nexts:
            return out
        cursor = nexts[0]
        if cursor in seen:
            return out
        seen.add(cursor)
        out.append(cursor)


def _maritime_events(graph: KnowledgeGraph, itinerary: str, role: str) -> List[str]:
    events = []
    for e in graph.objects(itinerary, "hasContainerEvent"):
        if not graph.is_subclass(graph.concept_of(e), "MaritimeTransshipment"):
            continue
        if graph.objects(e, role):
            events.append(e)
    return events


def _single(graph: KnowledgeGraph, node: str, role: str) -> Optional[str]:
    values = graph.objects(node, role)
    return values[0] if values else None


def _emit(
    graph: KnowledgeGraph,
    kind: PatternKind,
    itinerary: str,
    t: str,
    v: str,
    p1_node: str,
    end: date,
    vessel_date: date,
    found: Dict[Tuple, Detection],
) -> None:
    key = (graph.attr(itinerary, "label") or itinerary, _port_name(graph, p1_node) if kind is not PatternKind.UNNECESSARY_TRANSSHIPMENT else "", end, vessel_date)
    if key in found:
        return
    container = _single(graph, itinerary, "hasMO")
    dest = _single(graph, itinerary, "hasCIDestinationPort")
    t_port = _single(graph, t, "hasLocation")
    if kind is PatternKind.UNNECESSARY_TRANSSHIPMENT:
        vessel1 = _vessel_of(graph, v)
        vessel2 = _adjacent_vessel(graph, t, "after", "hasLoadingVessel")
    else:
        vessel2 = _vessel_of(graph, v)
        vessel1 = _adjacent_vessel(graph, t, "before", "hasDischargingVessel")
    evidence = Evidence(
        container_id=(graph.attr(container, "label") or "") if container else "",
        transshipment_event_id=graph.attr(t, "label") or t,
        transshipment_port=_port_name(graph, t_port) if t_port else "",
        vessel1=vessel1,
        vessel2=vessel2,
        port_p1=key[1],
        port_px=_port_name(graph, dest) if dest else "",
        container_end_date=end,
        vessel_date=vessel_date,
    )
    found[key] = Detection(
        itinerary_id=key[0],
        kind=kind,
        evidence=evidence,
        date_gap_days=(vessel_date - end).days,
    )


def scan(
    kind: PatternKind,
    graph: KnowledgeGraph,
    threshold_days: int = DEFAULT_DATE_THRESHOLD_DAYS,
    variant: str = "filtered",
) -> List[Detection]:
    """Procedurally re-derive the detections of ``detect(kind, ...)``."""
    found: Dict[Tuple, Detection] = {}
    for itinerary in graph.instances_of("ContainerItinerary"):
        end_node = _single(graph, itinerary, "hasEndTime")
        if end_node is None:
            continue
        end = _date_of(graph, end_node)
        if end is None:
            continue
        if kind is PatternKind.UNNECESSARY_TRANSSHIPMENT:
            _scan_unnecessary(graph, itinerary, end, variant, found)
        elif kind is PatternKind.LOOP:
            _scan_loop(graph, itinerary, end, variant, found)
        else:
            _scan_loop_intermediate(graph, itinerary, end, found)
    detections = list(found.values())
    suspicious, pruned = prune_by_date(detections, threshold_days)
    merged = suspicious + pruned
    merged.sort(key=Detection.sort_key)
    return merged


def _scan_unnecessary(graph, itinerary, end, variant, found):
    if _single(graph, itinerary, "hasCIDestinationPort") is None:
        return
    dest = _single(graph, itinerary, "hasCIDestinationPort")
    for t in _maritime_events(graph, itinerary, "hasDischargingVesselEvent"):
        v = _single(graph, t, "hasDischargingVesselEvent")
        for v1 in _chain_after(graph, v):
            if _single(graph, v1, "hasLocation") != dest:
                continue
            vd = _date_of(graph, _single(graph, v1, "hasTimestamp") or "")
            if vd is None:
                continue
            if not vd > end:  # the pattern's date direction, both variants
                continue
            _emit(
                graph,
                PatternKind.UNNECESSARY_TRANSSHIPMENT,
                itinerary,
                t,
                v,
                dest,
                end,
                vd,
                found,
            )


def _loop_core(graph, itinerary, end, anchor_node, min_anchor_date, found, kind):
    """Shared body of both filtered loop forms: the loading vessel returns to
    the anchor port while the container is still aboard."""
    events = set(graph.objects(itinerary, "hasContainerEvent"))
    for t in _maritime_events(graph, itinerary, "hasLoadingVesselEvent"):
        v = _single(graph, t, "hasLoadingVesselEvent")
        chain = _chain_after(graph, v)
        for i, v1 in enumerate(chain):
            if _single(graph, v1, "hasLocation") != anchor_node:
                continue
            vd = _date_of(graph, _single(graph, v1, "hasTimestamp") or "")
            if vd is None or not end > vd:
                continue
            if min_anchor_date is not None and not vd > min_anchor_date:
                continue
            for v2 in chain[i + 1 :]:
                discharged_here = False
                for t2 in graph.subjects(v2, "hasDischargingVesselEvent"):
                    if t2 not in events:
                        continue
                    if not graph.is_subclass(
                        graph.concept_of(t2), "MaritimeTransshipment"
                    ):
                        continue
                    t2_date = _date_of(graph, _single(graph, t2, "hasTimestamp") or "")
                    if t2_date is not None and t2_date > vd:
                        discharged_here = True
                        break
                if discharged_here:
                    _emit(graph, kind, itinerary, t, v, anchor_node, end, vd, found)
                    break


def _scan_loop(graph, itinerary, end, variant, found):
    source = _single(graph, itinerary, "hasCISourcePort")
    if source is None:
        return
    if variant == "filtered":
        _loop_core(graph, itinerary, end, source, None, found, PatternKind.LOOP)
        return
    # unfiltered pair form: chase source then destination, no date conditions
    dest = _single(graph, itinerary, "hasCIDestinationPort")
    if dest is None or dest == source:
        return
    for t in _maritime_events(graph, itinerary, "hasLoadingVesselEvent"):
        v = _single(graph, t, "hasLoadingVesselEvent")
        chain = _chain_after(graph, v)
        for i, v1 in enumerate(chain):
            if _single(graph, v1, "hasLocation") != source:
                continue
            vd = _date_of(graph, _single(graph, v1, "hasTimestamp") or "")
            if vd is None or not vd < end:  # the pattern's date direction
                continue
            if any(
                _single(graph, v2, "hasLocation") == dest for v2 in chain[i + 1 :]
            ):
                _emit(graph, PatternKind.LOOP, itinerary, t, v, source, end, vd, found)


def _scan_loop_intermediate(graph, itinerary, end, found):
    visit_dates: Dict[str, List[date]] = {}
    for e in graph.objects(itinerary, "hasContainerEvent"):
        port = _single(graph, e, "hasLocation")
        d = _date_of(graph, _single(graph, e, "hasTimestamp") or "")
        if port is not None and d is not None:
            visit_dates.setdefault(port, []).append(d)
    for port, dates in visit_dates.items():
        _loop_core(
            graph,
            itinerary,
            end,
            port,
            min(dates),
            found,
            PatternKind.LOOP_INTERMEDIATE,
        )
