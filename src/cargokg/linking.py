"""Bind container load/discharge events to vessel departure/arrival events.

The anomaly patterns hinge on following a container from its own itinerary
into the route of the vessel that carried it. That hand-over is made
explicit here: every discharging container event is connected to the arrival
of its vessel immediately before the discharge, and every loading event to
the vessel departure immediately after the loading, at the same port.

"Immediately" is bounded by a matching window (default 3 days) that absorbs
date-granularity noise; candidates beyond it stay unmatched and are recorded
as diagnostics. The window is a tunable because the source data never pins
it down.

Read-only over both inputs; itineraries can be linked in parallel.
"""

from dataclasses import dataclass
from datetime import timedelta
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from .atomicfile import atomic_write
from .diagnostics import Diagnostics, record
from .segmentation import ContainerItinerary
from .vessels import VesselEvent, VesselEventKind, vessel_key

DEFAULT_MATCH_WINDOW_DAYS = 3


class BindingKind(Enum):
    LOAD_TO_DEPARTURE = "LoadToDeparture"
    DISCHARGE_FROM_ARRIVAL = "DischargeFromArrival"


@dataclass(frozen=True)
class TransshipmentBinding:
    container_event_id: str
    vessel_event_id: str
    kind: BindingKind


class VesselEventIndex:
    """Vessel events keyed by (vessel, port), time-sorted per kind."""

    def __init__(self, events: Iterable[VesselEvent]):
        self._by_key: Dict[Tuple[str, str, VesselEventKind], List[VesselEvent]] = {}
        for e in events:
            self._by_key.setdefault((e.vessel_id, e.port.key, e.kind), []).append(e)
        for bucket in self._by_key.values():
            bucket.sort(key=lambda e: (e.time, e.event_id))

    def first_departure_at_or_after(
        self, vessel_id: str, port_key: str, when, window: timedelta
    ) -> Optional[VesselEvent]:
        bucket = self._by_key.get((vessel_id, port_key, VesselEventKind.DEPARTURE), [])
        for e in bucket:
            if e.time >= when:
                return e if e.time - when <= window else None
        return None

    def last_arrival_at_or_before(
        self, vessel_id: str, port_key: str, when, window: timedelta
    ) -> Optional[VesselEvent]:
        bucket = self._by_key.get((vessel_id, port_key, VesselEventKind.ARRIVAL), [])
        match = None
        for e in bucket:
            if e.time <= when:
                match = e
            else:
                break
        if match is not None and when - match.time <= window:
            return match
        return None


def bind_transshipments(
    itineraries: Iterable[ContainerItinerary],
    index: VesselEventIndex,
    match_window_days: int = DEFAULT_MATCH_WINDOW_DAYS,
    diagnostics: Optional[Diagnostics] = None,
) -> List[TransshipmentBinding]:
    """Bind every vessel-bearing load/discharge event to its vessel event.

    Bindings never cross ports and never point against time: a load binds to
    the earliest departure at or after it, a discharge to the latest arrival
    at or before it, both within the matching window.
    """
    window = timedelta(days=match_window_days)
    bindings: List[TransshipmentBinding] = []
    for itinerary in itineraries:
        for e in itinerary.events:
            if e.is_load and e.loading_vessel:
                target = index.first_departure_at_or_after(
                    vessel_key(e.loading_vessel), e.location.key, e.time, window
                )
                if target is None:
                    record(
                        diagnostics,
                        "unbound_load",
                        "event %s: no departure of %s at %s near %s"
                        % (e.event_id, e.loading_vessel, e.location, e.time),
                    )
                else:
                    bindings.append(
                        TransshipmentBinding(
                            e.event_id, target.event_id, BindingKind.LOAD_TO_DEPARTURE
                        )
                    )
            elif e.is_discharge and e.discharging_vessel:
                target = index.last_arrival_at_or_before(
                    vessel_key(e.discharging_vessel), e.location.key, e.time, window
                )
                if target is None:
                    record(
                        diagnostics,
                        "unbound_discharge",
                        "event %s: no arrival of %s at %s near %s"
                        % (e.event_id, e.discharging_vessel, e.location, e.time),
                    )
                else:
                    bindings.append(
                        TransshipmentBinding(
                            e.event_id,
                            target.event_id,
                            BindingKind.DISCHARGE_FROM_ARRIVAL,
                        )
                    )
            elif e.is_discharge and not e.discharging_vessel:
                record(
                    diagnostics,
                    "no_vessel_reference",
                    "discharge event %s carries no vessel" % e.event_id,
                )
    return bindings


def write_bindings(path: str, bindings: List[TransshipmentBinding]) -> None:
    with atomic_write(path) as fh:
        for b in bindings:
            fh.write(
                "%s\t%s\t%s\n" % (b.container_event_id, b.vessel_event_id, b.kind.value)
            )

