"""Output checks of the chain benchmark.

Each check compares one output of the program with an independent source of
truth (the generator's injected anomalies, the procedural scanners, the
stage summaries, a second save of the graph) and returns None when it holds
or a one-line description of the difference when it does not. ``Tally``
counts every check and every timed operation as one attempted operation.
"""

import filecmp
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from cargokg.patterns import Detection, PatternKind, Verdict


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known_faults = 0  # failed checks of a known fault of the program
        self.failures: List[str] = []

    def operation(self) -> None:
        """A timed operation that completed (one that raises ends the run)."""
        self.attempted += 1

    def check(self, name: str, problem: Optional[str], known_fault: bool = False) -> None:
        """Count one check. A failed ``known_fault`` check counts as failed
        but leaves the run correct: it fails on a fixed input in every run."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.known_faults += known_fault
            prefix = "known fault, " if known_fault else ""
            self.failures.append("%s%s: %s" % (prefix, name, problem))

    @property
    def correct(self) -> bool:
        """True when every failed check is one of a known fault."""
        return self.failed == self.known_faults


def _diff(got: Set, expected: Set) -> Optional[str]:
    if got == expected:
        return None
    missing = sorted(expected - got, key=repr)[:3]
    extra = sorted(got - expected, key=repr)[:3]
    return "%d missing (e.g. %r), %d extra (e.g. %r)" % (
        len(expected - got),
        missing,
        len(got - expected),
        extra,
    )


def suspicious_itineraries(detections: Iterable[Detection]) -> Set[str]:
    return {d.itinerary_id for d in detections if d.verdict is Verdict.SUSPICIOUS}


def check_truth(detections: Sequence[Detection], injected: Set[str]) -> Optional[str]:
    """The Suspicious itineraries are exactly the injected ones."""
    return _diff(suspicious_itineraries(detections), set(injected))


def verdicts(detections: Iterable[Detection]) -> Set[Tuple]:
    return {(d.key(), d.verdict) for d in detections}


def check_against_scan(
    detections: Sequence[Detection], scanned: Sequence[Detection]
) -> Optional[str]:
    """The full (key, verdict) set equals the procedural scanner's."""
    if len(detections) != len(scanned):
        return "%d detections against %d scanned" % (len(detections), len(scanned))
    return _diff(verdicts(detections), verdicts(scanned))


def check_same_detections(
    first: Sequence[Detection], second: Sequence[Detection]
) -> Optional[str]:
    """Two runs (e.g. the filtered and unfiltered forms) give identical
    detections, evidence and verdicts included, in the same order."""
    def facts(detections):
        return [
            (d.key(), d.verdict, d.date_gap_days, d.evidence) for d in detections
        ]

    a, b = facts(first), facts(second)
    if a == b:
        return None
    return "%d against %d detections; first difference at %d" % (
        len(a),
        len(b),
        next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b))),
    )


def query_keys(graph, rows: Iterable[Tuple[str, ...]]) -> Set[Tuple[str, str, str]]:
    """(itinerary label, container end, vessel date) of (?c ?endCI ?vesStop)
    result rows."""
    return {(graph.attr(c, "label") or c, end, vessel) for c, end, vessel in rows}


def scanned_keys_at(
    graph, scanned: Sequence[Detection], kind: PatternKind, port_node: str
) -> Set[Tuple[str, str, str]]:
    """The scanner's (itinerary, container end, vessel date) keys whose anchor
    is ``port_node``: p1 for the loops, the destination for UT."""
    name = graph.attr(port_node, "name") or port_node
    keys = set()
    for d in scanned:
        anchor = (
            d.evidence.port_px
            if kind is PatternKind.UNNECESSARY_TRANSSHIPMENT
            else d.evidence.port_p1
        )
        if anchor == name:
            keys.add(
                (
                    d.itinerary_id,
                    d.evidence.container_end_date.isoformat(),
                    d.evidence.vessel_date.isoformat(),
                )
            )
    return keys


def check_query(
    graph,
    rows: Iterable[Tuple[str, ...]],
    scanned: Sequence[Detection],
    kind: PatternKind,
    port_node: str,
) -> Optional[str]:
    return _diff(query_keys(graph, rows), scanned_keys_at(graph, scanned, kind, port_node))


def check_counts(counts: Dict[str, int], expected: int) -> Optional[str]:
    """Every stage summary reports the generated itinerary count."""
    wrong = {k: v for k, v in counts.items() if v != expected}
    if not wrong:
        return None
    return "expected %d itineraries, got %r" % (expected, wrong)


def check_identical_files(first: str, second: str) -> Optional[str]:
    if filecmp.cmp(first, second, shallow=False):
        return None
    return "%s and %s differ" % (first, second)
