"""Split one container's event stream into itineraries.

A container's chronologically ordered events describe a series of shipments.
Ideally each shipment runs through five phases: begin of trip, export,
an optional run of transshipments, import, end of trip. Real streams have
gaps, so segmentation uses two boundary signals, in priority order:

1. a TripStart-class event that follows a TripEnd-class event;
2. a loading-status flip to Full after an Empty event, once the current
   segment already contains Full maritime activity (evidence the previous
   voyage concluded without an explicit end event).

Pathological streams are never rejected: an unsplittable mix is labelled
Merged-suspect and kept.

After splitting, each itinerary is enriched in place:

* adjacent same-port (discharge, load) pairs become transshipment events;
* discharge events without an explicit vessel inherit the vessel of the most
  recent load (flagged as inferred, so vessel reconstruction can ignore them).

Per-container segmentation shares no state; containers can be processed in
parallel.
"""

import json
from dataclasses import dataclass, replace
from datetime import date
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .atomicfile import atomic_write
from .events import (
    CsmRecord,
    DISCHARGE_LEAVES,
    LOAD_LEAVES,
    LoadingStatus,
    Location,
    ReferenceEvent,
    TRANSSHIPMENT_DISCHARGE,
    TRANSSHIPMENT_LOAD,
    TopClass,
    VocabularyMap,
)


@dataclass(frozen=True)
class ContainerEvent:
    """A semantically classified STOP of one container."""

    event_id: str
    container_id: str
    time: date
    location: Location
    ref_event: ReferenceEvent
    loading_status: LoadingStatus
    loading_vessel: Optional[str] = None
    discharging_vessel: Optional[str] = None
    vessel_inferred: bool = False

    @property
    def top_class(self) -> TopClass:
        return self.ref_event.top_class

    @property
    def is_load(self) -> bool:
        return self.ref_event.leaf in LOAD_LEAVES

    @property
    def is_discharge(self) -> bool:
        return self.ref_event.leaf in DISCHARGE_LEAVES


class Completeness(Enum):
    COMPLETE = "Complete"
    PARTIAL_HEAD = "PartialHead"
    PARTIAL_TAIL = "PartialTail"
    MERGED_SUSPECT = "Merged-suspect"


@dataclass
class ContainerItinerary:
    """A time-ordered slice of one container's events forming one shipment."""

    itinerary_id: str
    container_id: str
    events: List[ContainerEvent]
    source_port: Location
    destination_port: Optional[Location]
    start_time: date
    end_time: date
    completeness: Completeness

    def transshipments(self) -> List[Tuple[ContainerEvent, ContainerEvent]]:
        """Adjacent same-port (discharge, load) pairs inside this itinerary."""
        pairs = []
        for a, b in zip(self.events, self.events[1:]):
            if a.is_discharge and b.is_load and a.location == b.location:
                pairs.append((a, b))
        return pairs


def event_from_record(rec: CsmRecord, vocab: VocabularyMap) -> ContainerEvent:
    """Classify one CSM record into a container event."""
    ref = vocab.classify(rec.raw_event_text)
    loading_vessel = None
    discharging_vessel = None
    if rec.vessel_name:
        if ref.leaf in LOAD_LEAVES:
            loading_vessel = rec.vessel_name
        elif ref.leaf in DISCHARGE_LEAVES:
            discharging_vessel = rec.vessel_name
    return ContainerEvent(
        event_id=rec.csm_id,
        container_id=rec.container_id,
        time=rec.time,
        location=rec.location,
        ref_event=ref,
        loading_status=rec.loading_status,
        loading_vessel=loading_vessel,
        discharging_vessel=discharging_vessel,
    )


def events_from_records(
    records: Iterable[CsmRecord], vocab: VocabularyMap
) -> Dict[str, List[ContainerEvent]]:
    """Group records per container, classified and time-ordered."""
    per_container: Dict[str, List[ContainerEvent]] = {}
    for rec in records:
        per_container.setdefault(rec.container_id, []).append(
            event_from_record(rec, vocab)
        )
    for events in per_container.values():
        events.sort(key=lambda e: e.time)  # stable: same-day keeps input order
    return per_container


def _boundary_kind(buffer: List[ContainerEvent], event: ContainerEvent) -> Optional[str]:
    if not buffer:
        return None
    if event.top_class is TopClass.TRIP_START and any(
        e.top_class is TopClass.TRIP_END for e in buffer
    ):
        return "trip_start"
    # Status flip: Full after a trailing Empty, once the segment shows a
    # completed voyage (Full maritime activity). A leading Empty before any
    # maritime event is normal pre-stuffing and must not split.
    if (
        event.loading_status is LoadingStatus.FULL
        and buffer[-1].loading_status is LoadingStatus.EMPTY
        and any(
            e.top_class is TopClass.MARITIME_TRANSSHIPMENT
            and e.loading_status is LoadingStatus.FULL
            for e in buffer
        )
    ):
        return "status_flip"
    return None


def _split_point(buffer: List[ContainerEvent]) -> int:
    """Index where the new itinerary starts inside ``buffer`` + next event.

    Trailing Empty TripStart events (e.g. a ReceivedAtOrigin that precedes
    the status flip) belong to the shipment being opened, not the one being
    closed.
    """
    cut = len(buffer)
    while cut > 1:
        prev = buffer[cut - 1]
        if (
            prev.top_class is TopClass.TRIP_START
            and prev.loading_status is LoadingStatus.EMPTY
        ):
            cut -= 1
        else:
            break
    return cut


def _reclassify_transshipments(events: List[ContainerEvent]) -> List[ContainerEvent]:
    out = list(events)
    for i in range(len(out) - 1):
        a, b = out[i], out[i + 1]
        if a.is_discharge and b.is_load and a.location == b.location:
            if a.ref_event.leaf != TRANSSHIPMENT_DISCHARGE.leaf:
                out[i] = replace(a, ref_event=TRANSSHIPMENT_DISCHARGE)
            if b.ref_event.leaf != TRANSSHIPMENT_LOAD.leaf:
                out[i + 1] = replace(b, ref_event=TRANSSHIPMENT_LOAD)
    return out


def _propagate_vessels(events: List[ContainerEvent]) -> List[ContainerEvent]:
    out = list(events)
    aboard: Optional[str] = None
    for i, e in enumerate(out):
        if e.is_load and e.loading_vessel:
            aboard = e.loading_vessel
        elif e.is_discharge:
            if e.discharging_vessel is None and aboard is not None:
                out[i] = replace(e, discharging_vessel=aboard, vessel_inferred=True)
            aboard = None
    return out


def _completeness(events: List[ContainerEvent]) -> Completeness:
    has_start = any(e.top_class is TopClass.TRIP_START for e in events)
    has_end = any(e.top_class is TopClass.TRIP_END for e in events)
    if has_end:
        first_end = next(
            i for i, e in enumerate(events) if e.top_class is TopClass.TRIP_END
        )
        if any(
            e.top_class is TopClass.MARITIME_TRANSSHIPMENT
            for e in events[first_end + 1 :]
        ):
            return Completeness.MERGED_SUSPECT
    if has_start and has_end:
        return Completeness.COMPLETE
    if has_start:
        return Completeness.PARTIAL_TAIL
    return Completeness.PARTIAL_HEAD


def _finish(container_id: str, seq: int, events: List[ContainerEvent]) -> ContainerItinerary:
    events = _propagate_vessels(_reclassify_transshipments(events))
    end_events = [e for e in events if e.top_class is TopClass.TRIP_END]
    destination = end_events[-1].location if end_events else None
    return ContainerItinerary(
        itinerary_id="%s-%03d" % (container_id, seq),
        container_id=container_id,
        events=events,
        source_port=events[0].location,
        destination_port=destination,
        start_time=events[0].time,
        end_time=events[-1].time,
        completeness=_completeness(events),
    )


def segment_container_sequence(
    events: List[ContainerEvent],
) -> List[ContainerItinerary]:
    """Partition one container's ordered events into itineraries.

    Every input event lands in exactly one output itinerary; itineraries are
    time-disjoint and returned in order. Never fails: ambiguous streams come
    back labelled Merged-suspect.
    """
    if not events:
        return []
    container_id = events[0].container_id
    ordered = sorted(events, key=lambda e: e.time)
    segments: List[List[ContainerEvent]] = []
    buffer: List[ContainerEvent] = []
    for event in ordered:
        kind = _boundary_kind(buffer, event)
        if kind is not None:
            cut = len(buffer) if kind == "trip_start" else _split_point(buffer)
            head, carried = buffer[:cut], buffer[cut:]
            if head:
                segments.append(head)
            buffer = carried
        buffer.append(event)
    if buffer:
        segments.append(buffer)
    return [
        _finish(container_id, seq, segment)
        for seq, segment in enumerate(segments, start=1)
    ]


def segment_all(
    per_container: Dict[str, List[ContainerEvent]]
) -> List[ContainerItinerary]:
    """Segment every container, deterministically ordered by container id."""
    itineraries: List[ContainerItinerary] = []
    for container_id in sorted(per_container):
        itineraries.extend(segment_container_sequence(per_container[container_id]))
    return itineraries


# ---------------------------------------------------------------------------
# Stage persistence: newline-delimited JSON dumps


class StageFileError(ValueError):
    """A line of a stage dump is malformed: not JSON, a field missing or of
    the wrong shape, or an event that the events file lacks or holds twice."""

    def __init__(self, path: str, number: int, cause: Exception):
        reason = "missing field %s" % cause if type(cause) is KeyError else str(cause)
        super().__init__("%s line %d: %s" % (path, number, reason))


_MALFORMED = (AttributeError, LookupError, RecursionError, TypeError, ValueError)


def event_to_json(e: ContainerEvent) -> dict:
    doc = {
        "event_id": e.event_id,
        "container_id": e.container_id,
        "time": e.time.isoformat(),
        "location": {"name": e.location.name, "country": e.location.country},
        "ref_event": e.ref_event.leaf,
        "top_class": e.ref_event.top_class.value,
        "loading_status": e.loading_status.value,
    }
    if e.loading_vessel:
        doc["loading_vessel"] = e.loading_vessel
    if e.discharging_vessel:
        doc["discharging_vessel"] = e.discharging_vessel
        doc["vessel_inferred"] = e.vessel_inferred
    return doc


def _text(value: object, field: str) -> str:
    """``value`` if it is a string; a number or list where a name belongs
    would otherwise fail far downstream, away from its file and line."""
    if not isinstance(value, str):
        raise TypeError("field %s holds %s, not a string" % (field, type(value).__name__))
    return value


def _location(doc: dict, field: str) -> Location:
    place = doc[field]
    return Location(
        _text(place["name"], field + ".name"), _text(place["country"], field + ".country")
    )


def _vessel(doc: dict, field: str) -> Optional[str]:
    value = doc.get(field)
    return None if value is None else _text(value, field)


def event_from_json(doc: dict) -> ContainerEvent:
    return ContainerEvent(
        event_id=_text(doc["event_id"], "event_id"),
        container_id=_text(doc["container_id"], "container_id"),
        time=date.fromisoformat(doc["time"]),
        location=_location(doc, "location"),
        ref_event=ReferenceEvent(_text(doc["ref_event"], "ref_event"), TopClass(doc["top_class"])),
        loading_status=LoadingStatus(doc["loading_status"]),
        loading_vessel=_vessel(doc, "loading_vessel"),
        discharging_vessel=_vessel(doc, "discharging_vessel"),
        vessel_inferred=doc.get("vessel_inferred", False),
    )


def itinerary_to_json(it: ContainerItinerary) -> dict:
    return {
        "itinerary_id": it.itinerary_id,
        "container_id": it.container_id,
        "source_port": {"name": it.source_port.name, "country": it.source_port.country},
        "destination_port": (
            {"name": it.destination_port.name, "country": it.destination_port.country}
            if it.destination_port
            else None
        ),
        "start_time": it.start_time.isoformat(),
        "end_time": it.end_time.isoformat(),
        "completeness": it.completeness.value,
        "events": [e.event_id for e in it.events],
    }


def itinerary_from_json(
    doc: dict, events_by_id: Dict[str, ContainerEvent]
) -> ContainerItinerary:
    missing = [eid for eid in doc["events"] if eid not in events_by_id]
    if missing:
        raise LookupError("event %s is not in the events file" % missing[0])
    return ContainerItinerary(
        itinerary_id=_text(doc["itinerary_id"], "itinerary_id"),
        container_id=_text(doc["container_id"], "container_id"),
        events=[events_by_id[eid] for eid in doc["events"]],
        source_port=_location(doc, "source_port"),
        destination_port=(
            _location(doc, "destination_port") if doc["destination_port"] else None
        ),
        start_time=date.fromisoformat(doc["start_time"]),
        end_time=date.fromisoformat(doc["end_time"]),
        completeness=Completeness(doc["completeness"]),
    )


def write_itineraries(
    itineraries_path: str, events_path: str, itineraries: List[ContainerItinerary]
) -> None:
    """Persist itineraries and their events as two JSONL files. Both are
    replaced atomically, after both are written: a failed write leaves
    both previous files as they were."""
    with (
        atomic_write(events_path) as events_fh,
        atomic_write(itineraries_path) as itineraries_fh,
    ):
        for it in itineraries:
            for e in it.events:
                events_fh.write(json.dumps(event_to_json(e), sort_keys=True) + "\n")
            itineraries_fh.write(json.dumps(itinerary_to_json(it), sort_keys=True) + "\n")


def read_itineraries(
    itineraries_path: str, events_path: str
) -> List[ContainerItinerary]:
    """Read back the dumps of :func:`write_itineraries`; an event id the
    events file holds twice is a :class:`StageFileError`."""
    events: Dict[str, ContainerEvent] = {}

    def add_event(doc: dict) -> None:
        event = event_from_json(doc)
        if event.event_id in events:
            raise ValueError("event %s is already in the events file" % event.event_id)
        events[event.event_id] = event

    _read_dump(events_path, add_event)
    return _read_dump(itineraries_path, lambda doc: itinerary_from_json(doc, events))


def _read_dump(path: str, convert: Callable[[dict], object]) -> list:
    """``convert`` of each non-blank line's JSON record; a line that is not a
    record of the expected shape raises :class:`StageFileError`."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    out.append(convert(json.loads(line)))
                except _MALFORMED as exc:
                    raise StageFileError(path, number, exc) from None
    return out
