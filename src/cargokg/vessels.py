"""Vessel port calls, arrival/departure events and trips.

Vessel movements are not reported directly; they are implied by the container
events that name a vessel. Aggregating those witnesses per vessel and port
yields the interval the vessel spent in each port. Ordering the intervals
gives an event sequence (Arrival at first sighting, Departure at last), and
pairing each Departure with the following Arrival gives the vessel's trips.

Only explicit vessel references count as witnesses: a discharge whose vessel
was inferred by propagation inside an itinerary confirms nothing about where
the vessel actually was.

A port is identified by its ``Location.key``, as its graph node is: two
spellings of one port (``Port Kelang,MY`` and ``PORT KELANG,MY``) are one
port, so their sightings join one call.

Aggregation groups by vessel, so per-vessel derivation is embarrassingly
parallel over immutable inputs.
"""

import json
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from .atomicfile import atomic_write
from .diagnostics import Diagnostics, record
from .events import Location, slug
from .segmentation import ContainerEvent

DEFAULT_CLUSTER_WINDOW_DAYS = 7


def vessel_key(name: str) -> str:
    """Identity of a vessel: its normalised name (IMO numbers, when carriers
    provide them, normalise the same way)."""
    return slug(name)


@dataclass(frozen=True)
class VesselPortCall:
    """A maximal cluster of same-vessel, same-port witness events."""

    vessel_id: str
    port: Location
    first_seen: date
    last_seen: date
    support: int


class VesselEventKind(Enum):
    ARRIVAL = "Arrival"
    DEPARTURE = "Departure"


@dataclass(frozen=True)
class VesselEvent:
    event_id: str
    kind: VesselEventKind
    vessel_id: str
    port: Location
    time: date


@dataclass(frozen=True)
class VesselTrip:
    trip_id: str
    vessel_id: str
    departure: VesselEvent
    arrival: VesselEvent


def _witnesses(
    events: Iterable[ContainerEvent],
) -> Dict[str, List[Tuple[date, Location, str]]]:
    """Explicit (date, port, witness event id) sightings grouped per vessel."""
    per_vessel: Dict[str, List[Tuple[date, Location, str]]] = {}
    for e in events:
        name = None
        if e.loading_vessel:
            name = e.loading_vessel
        elif e.discharging_vessel and not e.vessel_inferred:
            name = e.discharging_vessel
        if name is None:
            continue
        per_vessel.setdefault(vessel_key(name), []).append(
            (e.time, e.location, e.event_id)
        )
    return per_vessel


def aggregate_port_calls(
    events: Iterable[ContainerEvent],
    cluster_window_days: int = DEFAULT_CLUSTER_WINDOW_DAYS,
    diagnostics: Optional[Diagnostics] = None,
) -> List[VesselPortCall]:
    """Cluster vessel sightings into port calls.

    Two sightings of one vessel at one port belong to the same call unless an
    event of that vessel at another port falls between them, or they are more
    than ``cluster_window_days`` apart. Output is sorted (vessel, first_seen,
    port) and independent of input order: the calls are built in that order,
    from each vessel's sightings sorted by (date, port, event id).

    Two calls of one vessel at different ports that share a date are
    recorded as overlapping.
    """
    window = timedelta(days=cluster_window_days)
    calls: List[VesselPortCall] = []
    per_vessel = _witnesses(events)
    for vessel_id in sorted(per_vessel):
        clusters: List[List[Tuple[date, Location, str]]] = []
        for s in sorted(per_vessel[vessel_id], key=lambda s: (s[0], s[1].key, s[2])):
            if (
                clusters
                and s[1].key == clusters[-1][-1][1].key
                and s[0] - clusters[-1][-1][0] <= window
            ):
                clusters[-1].append(s)
            else:
                clusters.append([s])
        vessel_calls = [_to_call(vessel_id, cluster) for cluster in clusters]
        for a, b in zip(vessel_calls, vessel_calls[1:]):
            if b.first_seen <= a.last_seen and a.port.key != b.port.key:
                record(
                    diagnostics,
                    "overlapping_calls",
                    "vessel %s at %s and %s around %s" % (vessel_id, a.port, b.port, b.first_seen),
                )
        calls.extend(vessel_calls)
    return calls


def _to_call(vessel_id: str, cluster: List[Tuple[date, Location, str]]) -> VesselPortCall:
    return VesselPortCall(
        vessel_id=vessel_id,
        port=cluster[0][1],
        first_seen=cluster[0][0],
        last_seen=cluster[-1][0],
        support=len(cluster),
    )


def derive_vessel_events(
    calls: List[VesselPortCall],
    diagnostics: Optional[Diagnostics] = None,
) -> List[VesselEvent]:
    """Expand ordered port calls of one vessel into Arrival/Departure events.

    Overlapping calls (the vessel reported at two ports on one date, which
    conflicting CSMs can produce) are truncated on the later side and
    recorded, never repaired silently.
    """
    if not calls:
        return []
    vessel_id = calls[0].vessel_id
    ordered = sorted(calls, key=lambda c: (c.first_seen, c.last_seen, c.port.key))
    events: List[VesselEvent] = []
    prev_end: Optional[date] = None
    seq = 0
    for call in ordered:
        first, last = call.first_seen, call.last_seen
        if prev_end is not None and first <= prev_end:
            record(
                diagnostics,
                "truncated_call",
                "vessel %s call at %s [%s, %s] overlaps previous call ending %s"
                % (vessel_id, call.port, first, last, prev_end),
            )
            first = prev_end + timedelta(days=1)
            if first > last:
                record(
                    diagnostics,
                    "dropped_call",
                    "vessel %s call at %s dropped entirely" % (vessel_id, call.port),
                )
                continue
        events.append(
            VesselEvent(
                "ve_%s_%05d" % (vessel_id, seq),
                VesselEventKind.ARRIVAL,
                vessel_id,
                call.port,
                first,
            )
        )
        events.append(
            VesselEvent(
                "ve_%s_%05d" % (vessel_id, seq + 1),
                VesselEventKind.DEPARTURE,
                vessel_id,
                call.port,
                last,
            )
        )
        seq += 2
        prev_end = last
    return events


def build_vessel_trips(
    events: List[VesselEvent],
    diagnostics: Optional[Diagnostics] = None,
) -> List[VesselTrip]:
    """Pair each Departure with the next Arrival of the same vessel."""
    trips: List[VesselTrip] = []
    if not events:
        return trips
    vessel_id = events[0].vessel_id
    pending: Optional[VesselEvent] = None
    seq = 0
    for e in events:
        if e.kind is VesselEventKind.DEPARTURE:
            pending = e
        else:
            if pending is None:
                record(
                    diagnostics,
                    "dangling_arrival",
                    "vessel %s arrival at %s on %s opens the sequence"
                    % (vessel_id, e.port, e.time),
                )
                continue
            trips.append(
                VesselTrip("vt_%s_%03d" % (vessel_id, seq), vessel_id, pending, e)
            )
            seq += 1
            pending = None
    if pending is not None:
        record(
            diagnostics,
            "dangling_departure",
            "vessel %s departure from %s on %s closes the sequence"
            % (vessel_id, pending.port, pending.time),
        )
    return trips


def reconstruct_all(
    events: Iterable[ContainerEvent],
    cluster_window_days: int = DEFAULT_CLUSTER_WINDOW_DAYS,
    diagnostics: Optional[Diagnostics] = None,
) -> Tuple[List[VesselPortCall], List[VesselEvent], List[VesselTrip]]:
    """Full reconstruction: calls, per-vessel event chains and trips."""
    calls = aggregate_port_calls(events, cluster_window_days, diagnostics)
    vessel_events: List[VesselEvent] = []
    trips: List[VesselTrip] = []
    # the calls come sorted by vessel: one run each
    for _, vessel_calls in groupby(calls, key=attrgetter("vessel_id")):
        chain = derive_vessel_events(list(vessel_calls), diagnostics)
        vessel_events.extend(chain)
        trips.extend(build_vessel_trips(chain, diagnostics))
    return calls, vessel_events, trips


# ---------------------------------------------------------------------------
# Stage persistence


def trip_to_json(t: VesselTrip) -> dict:
    return {
        "trip_id": t.trip_id,
        "vessel_id": t.vessel_id,
        "departure_port": {"name": t.departure.port.name, "country": t.departure.port.country},
        "departure_time": t.departure.time.isoformat(),
        "arrival_port": {"name": t.arrival.port.name, "country": t.arrival.port.country},
        "arrival_time": t.arrival.time.isoformat(),
        "departure_event": t.departure.event_id,
        "arrival_event": t.arrival.event_id,
    }


def vessel_event_to_json(e: VesselEvent) -> dict:
    return {
        "event_id": e.event_id,
        "kind": e.kind.value,
        "vessel_id": e.vessel_id,
        "port": {"name": e.port.name, "country": e.port.country},
        "time": e.time.isoformat(),
    }


def write_vessel_stage(
    events_path: str, trips_path: str, events: List[VesselEvent], trips: List[VesselTrip]
) -> None:
    """Persist vessel events and trips as two JSONL files. Both are
    replaced atomically, after both are written: a failed write leaves
    both previous files as they were."""
    with atomic_write(events_path) as events_fh, atomic_write(trips_path) as trips_fh:
        for e in events:
            events_fh.write(json.dumps(vessel_event_to_json(e), sort_keys=True) + "\n")
        for t in trips:
            trips_fh.write(json.dumps(trip_to_json(t), sort_keys=True) + "\n")
