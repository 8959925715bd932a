"""Deterministic synthetic CSM generator with ground-truth anomaly injection.

Generation is vessel-driven: every vessel keeps a cursor (current port,
next free date) that only moves forward, so one vessel is never at two
ports on one date by construction. Each itinerary threads onto one or two
vessels, extending their schedules by the calls it needs; normal rides are
single-leg (board at one call, alight at the next), which structurally
rules out the loop patterns for them.

Injected anomalies embed the two reference routings:

* loop: the second vessel swings back through the itinerary's source port
  one day before delivering the container;
* unnecessary transshipment: the first vessel also reaches the container's
  destination one day after the container.

Vessel positions only exist downstream where a container event witnesses
them, so every injection is accompanied by one normal "witness" itinerary
that rides the key leg and makes the return/arrival call reconstructable.

Accidental pattern matches are prevented with per-vessel forbidden windows:
once an itinerary ends, its vessels may not call at its source or
destination ports within the pruning window around the end date; a vessel
that would violate a window simply waits. This keeps zero-injection
datasets free of Suspicious detections at the default threshold.

Container-to-itinerary ratios follow the observed saturation of the
reference cardinalities (roughly 0.95 at 5K itineraries falling to 0.85 at
20K); ports and vessels are covered exactly by preferring unused ones.

The random source is Python's ``random.Random`` (Mersenne Twister), whose
behaviour is pinned by the language reference, so (seed, config) reproduces
byte-identical datasets anywhere. Generation is single-threaded by design.
"""

import heapq
from dataclasses import dataclass, field
from datetime import date, timedelta
from random import Random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .atomicfile import atomic_write
from .events import (
    CsmRecord,
    Location,
    LoadingStatus,
    make_container_id,
)


class InfeasibleConfigError(ValueError):
    pass


@dataclass
class GenConfig:
    seed: int
    itinerary_count: int
    port_count: int
    vessel_count: int
    transshipment_rate: float = 0.4
    injected_loops: int = 0
    injected_unnecessary: int = 0
    date_start: date = date(2009, 1, 1)
    date_end: date = date(2011, 12, 31)

    def validate(self) -> None:
        if min(self.itinerary_count, self.port_count, self.vessel_count) <= 0:
            raise InfeasibleConfigError("cardinalities must be positive")
        if not 0.0 <= self.transshipment_rate <= 1.0:
            raise InfeasibleConfigError("transshipment_rate must be in [0, 1]")
        if self.injected_loops < 0 or self.injected_unnecessary < 0:
            raise InfeasibleConfigError("injection counts must be non-negative")
        injected = self.injected_loops + self.injected_unnecessary
        if 2 * injected > self.itinerary_count:
            raise InfeasibleConfigError(
                "each injection needs a witness itinerary: itinerary_count >= 2 * injections"
            )
        needs_two_vessels = self.transshipment_rate > 0 or injected > 0
        if needs_two_vessels and self.vessel_count < 2:
            raise InfeasibleConfigError("transshipments need at least 2 vessels")
        if needs_two_vessels and self.port_count < 3:
            raise InfeasibleConfigError("transshipments need at least 3 ports")
        if self.port_count < 2:
            raise InfeasibleConfigError("itineraries need at least 2 ports")
        if self.port_count > self.vessel_count + self.itinerary_count:
            raise InfeasibleConfigError("too many ports to cover")
        if self.date_end - self.date_start < timedelta(days=60):
            raise InfeasibleConfigError("date span must cover at least 60 days")


@dataclass
class GroundTruth:
    """itinerary id -> injected pattern kind ("loop" / "unnecessary")."""

    entries: Dict[str, str] = field(default_factory=dict)

    def of_kind(self, kind: str) -> Set[str]:
        return {k for k, v in self.entries.items() if v == kind}

    def write_csv(self, path: str) -> None:
        import csv

        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["itinerary_id", "kind"])
            for itinerary_id in sorted(self.entries):
                writer.writerow([itinerary_id, self.entries[itinerary_id]])

    @classmethod
    def read_csv(cls, path: str) -> "GroundTruth":
        import csv

        truth = cls()
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                truth.entries[row["itinerary_id"]] = row["kind"]
        return truth


# Table-style ratios of containers to itineraries at increasing dataset
# sizes; interpolated piecewise-linearly, clamped at the ends.
_CONTAINER_RATIO_ANCHORS = [
    (5000, 0.9526),
    (10000, 0.9203),
    (15000, 0.88427),
    (20000, 0.8506),
]


def container_ratio(itinerary_count: int) -> float:
    anchors = _CONTAINER_RATIO_ANCHORS
    if itinerary_count <= anchors[0][0]:
        return anchors[0][1]
    if itinerary_count >= anchors[-1][0]:
        return anchors[-1][1]
    for (x0, y0), (x1, y1) in zip(anchors, anchors[1:]):
        if x0 <= itinerary_count <= x1:
            t = (itinerary_count - x0) / (x1 - x0)
            return y0 + t * (y1 - y0)
    return anchors[-1][1]


# ---------------------------------------------------------------------------
# Internal world state


@dataclass
class _Vessel:
    name: str
    port: Optional[Location] = None
    free: Optional[date] = None
    # (port key, window start, window end): no new call may fall inside
    forbidden: Dict[str, List[Tuple[date, date]]] = field(default_factory=dict)

    def blocked(self, port: Location, when: date) -> bool:
        for lo, hi in self.forbidden.get(port.key, ()):  # few windows per port
            if lo <= when <= hi:
                return True
        return False

    def forbid(self, port: Location, lo: date, hi: date) -> None:
        self.forbidden.setdefault(port.key, []).append((lo, hi))


@dataclass
class _PlannedEvent:
    phrase_kind: str  # received / gate_in / load / discharge / gate_out / final / empty_return
    port: Location
    time: date
    status: LoadingStatus
    vessel: Optional[str] = None


@dataclass
class _Plan:
    index: int
    events: List[_PlannedEvent]
    injected: Optional[str] = None  # "loop" / "unnecessary"

    @property
    def start(self) -> date:
        return self.events[0].time

    @property
    def end(self) -> date:
        return self.events[-1].time


class _World:
    def __init__(self, cfg: GenConfig, rng: Random):
        self.cfg = cfg
        self.rng = rng
        self.ports = [
            Location("PORT%04d" % i, self._country(i)) for i in range(cfg.port_count)
        ]
        self.unused_ports = list(self.ports)
        names = ["VESSEL%04d" % i for i in range(cfg.vessel_count)]
        self.vessels = {name: _Vessel(name) for name in names}
        self.rotation = list(names)
        rng.shuffle(self.rotation)
        self.unused_vessels = list(self.rotation)
        self.rotation_index = 0
        span = (cfg.date_end - cfg.date_start).days
        self.stagger_limit = max(1, span // 3)

    @staticmethod
    def _country(i: int) -> str:
        return chr(65 + (i // 26) % 26) + chr(65 + i % 26)

    def choose_port(
        self,
        exclude: Set[str],
        avoid: Tuple[Tuple["_Vessel", date], ...] = (),
    ) -> Location:
        """An unused port first (exact coverage), else a random one; never a
        port blocked for any of the (vessel, date) calls in ``avoid``."""

        def usable(port: Location) -> bool:
            if port.key in exclude:
                return False
            return all(not vessel.blocked(port, when) for vessel, when in avoid)

        for i, port in enumerate(self.unused_ports):
            if usable(port):
                return self.unused_ports.pop(i)
        for _ in range(96):
            port = self.rng.choice(self.ports)
            if usable(port):
                return port
        raise InfeasibleConfigError("cannot choose a usable port")

    def activate(self, vessel: _Vessel) -> None:
        if vessel.free is None:
            vessel.free = self.cfg.date_start + timedelta(
                days=self.rng.randrange(0, self.stagger_limit)
            )
        if vessel.port is None:
            vessel.port = self.choose_port(set())

    def pick_vessel(
        self, exclude: Set[str], load_dwell: Tuple[int, int] = (1, 2)
    ) -> Tuple[_Vessel, date]:
        """Next vessel from the rotation whose forbidden windows allow a load
        at its cursor port; a blocked vessel just waits a day."""
        for attempt in range(8 * len(self.rotation) + 64):
            name = None
            from_unused = False
            for candidate in self.unused_vessels:
                if candidate not in exclude:
                    name = candidate
                    from_unused = True
                    break
            if name is None:
                name = self._rotate(exclude)
            vessel = self.vessels[name]
            self.activate(vessel)
            load_day = vessel.free + timedelta(
                days=self.rng.randrange(load_dwell[0], load_dwell[1] + 1)
            )
            if vessel.blocked(vessel.port, load_day):
                vessel.free = vessel.free + timedelta(days=1)
                continue
            if from_unused:
                self.unused_vessels.remove(name)
            return vessel, load_day
        raise InfeasibleConfigError("no vessel available; forbidden windows too dense")

    def _rotate(self, exclude: Set[str]) -> str:
        for _ in range(len(self.rotation)):
            name = self.rotation[self.rotation_index % len(self.rotation)]
            self.rotation_index += 1
            if name not in exclude:
                return name
        raise InfeasibleConfigError("vessel rotation exhausted")

    def arrival_port(
        self, vessel: _Vessel, when_from: date, exclude: Set[str]
    ) -> Tuple[Location, date]:
        """A destination call for ``vessel`` departing on ``when_from``."""
        arrive = when_from + timedelta(days=self.rng.randrange(2, 7))
        port = self.choose_port(exclude, avoid=((vessel, arrive),))
        return port, arrive


def _window(end: date, days: int = 3) -> Tuple[date, date]:
    return end - timedelta(days=days), end - timedelta(days=-days)


_PRUNE_GUARD_DAYS = 3


def _guard(vessel: _Vessel, ports: Iterable[Location], end: date) -> None:
    lo, hi = _window(end, _PRUNE_GUARD_DAYS)
    for port in ports:
        vessel.forbid(port, lo, hi)


def _head(src: Location, load_day: date) -> List[_PlannedEvent]:
    return [
        _PlannedEvent("received", src, load_day - timedelta(days=2), LoadingStatus.EMPTY),
        _PlannedEvent("gate_in", src, load_day - timedelta(days=1), LoadingStatus.FULL),
    ]


def _tail(
    dest: Location, arrive: date, rng: Random, allow_empty_return: bool
) -> List[_PlannedEvent]:
    final = arrive + timedelta(days=rng.randrange(2, 4))
    events = [
        _PlannedEvent("gate_out", dest, arrive + timedelta(days=1), LoadingStatus.FULL),
        _PlannedEvent("final", dest, final, LoadingStatus.FULL),
    ]
    if allow_empty_return and rng.random() < 0.25:
        events.append(
            _PlannedEvent(
                "empty_return", dest, final + timedelta(days=1), LoadingStatus.EMPTY
            )
        )
    return events


def _plan_normal(world: _World, index: int) -> _Plan:
    rng = world.rng
    v1, load_day = world.pick_vessel(exclude=set())
    src = v1.port
    events = _head(src, load_day)
    events.append(_PlannedEvent("load", src, load_day, LoadingStatus.FULL, v1.name))
    transship = rng.random() < world.cfg.transshipment_rate and world.cfg.vessel_count >= 2
    if transship:
        mid, mid_arrive = world.arrival_port(v1, load_day, exclude={src.key})
        events.append(
            _PlannedEvent("discharge", mid, mid_arrive, LoadingStatus.FULL, v1.name)
        )
        v2, _ = world.pick_vessel(exclude={v1.name})
        hop = max(v2.free + timedelta(days=rng.randrange(1, 4)), mid_arrive)
        # the vessel departs the transshipment port the day the box is loaded
        while v2.blocked(mid, hop):
            hop += timedelta(days=1)
        events.append(_PlannedEvent("load", mid, hop, LoadingStatus.FULL, v2.name))
        dest, arrive = world.arrival_port(v2, hop, exclude={src.key, mid.key})
        events.append(
            _PlannedEvent("discharge", dest, arrive, LoadingStatus.FULL, v2.name)
        )
        events.extend(_tail(dest, arrive, rng, allow_empty_return=True))
        end = events[-1].time
        v1.port, v1.free = mid, mid_arrive
        v2.port, v2.free = dest, arrive
        _guard(v1, (src, dest), end)
        _guard(v2, (src, dest), end)
    else:
        dest, arrive = world.arrival_port(v1, load_day, exclude={src.key})
        events.append(
            _PlannedEvent("discharge", dest, arrive, LoadingStatus.FULL, v1.name)
        )
        events.extend(_tail(dest, arrive, rng, allow_empty_return=True))
        end = events[-1].time
        v1.port, v1.free = dest, arrive
        _guard(v1, (src, dest), end)
    return _Plan(index, events)


def _witness_plan(
    world: _World,
    index: int,
    vessel: _Vessel,
    board: Location,
    load_day: date,
    dest: Location,
    arrive: date,
) -> _Plan:
    """A normal itinerary riding one specific leg; it witnesses the leg's
    departure and arrival calls for vessel reconstruction."""
    events = _head(board, load_day)
    events.append(_PlannedEvent("load", board, load_day, LoadingStatus.FULL, vessel.name))
    events.append(
        _PlannedEvent("discharge", dest, arrive, LoadingStatus.FULL, vessel.name)
    )
    events.extend(_tail(dest, arrive, world.rng, allow_empty_return=False))
    _guard(vessel, (board, dest), events[-1].time)
    return _Plan(index, events)


def _plan_loop(world: _World, index: int) -> Tuple[_Plan, _Plan]:
    """Anomalous itinerary: transshipped at B onto a vessel routed B -> A
    (the source) -> PX, delivering one day after the source call."""
    rng = world.rng
    v1, load_day = world.pick_vessel(exclude=set())
    src = v1.port
    b_port, b_arrive = world.arrival_port(v1, load_day, exclude={src.key})
    v2, _ = world.pick_vessel(exclude={v1.name})
    hop = max(v2.free + timedelta(days=rng.randrange(1, 4)), b_arrive)
    span = timedelta(days=rng.randrange(2, 4))
    while v2.blocked(b_port, hop) or v2.blocked(src, hop + span):
        hop += timedelta(days=1)
    back = hop + span  # v2 reaches the source again
    deliver = back + timedelta(days=1)
    px_port = world.choose_port(
        exclude={src.key, b_port.key}, avoid=((v2, deliver),)
    )

    events = _head(src, load_day)
    events.append(_PlannedEvent("load", src, load_day, LoadingStatus.FULL, v1.name))
    events.append(_PlannedEvent("discharge", b_port, b_arrive, LoadingStatus.FULL, v1.name))
    events.append(_PlannedEvent("load", b_port, hop, LoadingStatus.FULL, v2.name))
    events.append(_PlannedEvent("discharge", px_port, deliver, LoadingStatus.FULL, v2.name))
    events.append(_PlannedEvent("gate_out", px_port, deliver, LoadingStatus.FULL))
    events.append(_PlannedEvent("final", px_port, deliver, LoadingStatus.FULL))
    plan = _Plan(index, events, injected="loop")

    # the witness rides v2 over the A -> PX leg, making the swing-back call
    # at the source reconstructable
    witness = _witness_plan(world, index + 1, v2, src, back, px_port, deliver)

    v1.port, v1.free = b_port, b_arrive
    v2.port, v2.free = px_port, deliver
    _guard(v1, (src, px_port), deliver)
    _guard(v2, (src, b_port, px_port), deliver)
    return plan, witness


def _plan_unnecessary(world: _World, index: int) -> Tuple[_Plan, _Plan]:
    """Anomalous itinerary: transshipped at B although the first vessel also
    reaches the destination, one day after the container."""
    rng = world.rng
    v1, load_day = world.pick_vessel(exclude=set())
    src = v1.port
    b_port, b_arrive = world.arrival_port(v1, load_day, exclude={src.key})
    v2, _ = world.pick_vessel(exclude={v1.name})
    hop = max(v2.free + timedelta(days=rng.randrange(1, 4)), b_arrive + timedelta(days=1))
    # v1 departs B the same day, carrying the witness container
    while v2.blocked(b_port, hop) or v1.blocked(b_port, hop):
        hop += timedelta(days=1)
    follow = hop
    deliver = hop + timedelta(days=rng.randrange(2, 4))
    chase = deliver + timedelta(days=1)  # v1 reaches the destination too
    dest = world.choose_port(
        exclude={src.key, b_port.key}, avoid=((v2, deliver), (v1, chase))
    )

    events = _head(src, load_day)
    events.append(_PlannedEvent("load", src, load_day, LoadingStatus.FULL, v1.name))
    events.append(_PlannedEvent("discharge", b_port, b_arrive, LoadingStatus.FULL, v1.name))
    events.append(_PlannedEvent("load", b_port, hop, LoadingStatus.FULL, v2.name))
    events.append(_PlannedEvent("discharge", dest, deliver, LoadingStatus.FULL, v2.name))
    events.append(_PlannedEvent("gate_out", dest, deliver, LoadingStatus.FULL))
    events.append(_PlannedEvent("final", dest, deliver, LoadingStatus.FULL))
    plan = _Plan(index, events, injected="unnecessary")

    witness = _witness_plan(world, index + 1, v1, b_port, follow, dest, chase)

    v1.port, v1.free = dest, chase
    v2.port, v2.free = dest, deliver
    _guard(v1, (src, dest), deliver)
    _guard(v2, (src, b_port, dest), deliver)
    return plan, witness


# ---------------------------------------------------------------------------
# Phrasing and emission

_PHRASES = {
    "received": ["Received at Origin"],
    "gate_in": ["Gate In", "GATE-IN"],
    "load": ["Loaded/Ramped", "Loaded to Vessel", "LOADED"],
    "discharge": ["Discharged/Deramped", "Discharged", "Discharge Full"],
    "gate_out": ["Gate Out", "GATE-OUT"],
    "final": ["Final Destination"],
    "empty_return": ["Empty Returned"],
}

_OWNER_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _owner_code(i: int) -> str:
    return (
        _OWNER_LETTERS[(i // 676) % 26]
        + _OWNER_LETTERS[(i // 26) % 26]
        + _OWNER_LETTERS[i % 26]
    )


def _assign_containers(
    cfg: GenConfig, plans: List[_Plan], rng: Random
) -> Tuple[Dict[int, str], Dict[int, str]]:
    """Map plan index -> container id and plan index -> itinerary id.

    Reuse draws from containers free for at least 3 days, matching the
    saturating container-to-itinerary ratio.
    """
    total = len(plans)
    target = min(total, max(1, round(container_ratio(total) * total)))
    ordered = sorted(plans, key=lambda p: (p.start, p.index))
    free: List[Tuple[date, int]] = []  # (available date, container number)
    container_of: Dict[int, str] = {}
    sequence_of: Dict[int, int] = {}
    containers: Dict[int, str] = {}
    next_seq: Dict[int, int] = {}
    fresh_used = 0
    for position, plan in enumerate(ordered):
        remaining = total - position
        must_fresh = (target - fresh_used) >= remaining
        reusable = free and free[0][0] <= plan.start
        if fresh_used < target and (must_fresh or not reusable):
            number = fresh_used
            containers[number] = make_container_id(_owner_code(number // 1000), number)
            next_seq[number] = 1
            fresh_used += 1
        elif reusable:
            _, number = heapq.heappop(free)
        else:
            raise InfeasibleConfigError(
                "itineraries overlap too densely for the container ratio"
            )
        container_of[plan.index] = containers[number]
        sequence_of[plan.index] = next_seq[number]
        next_seq[number] += 1
        heapq.heappush(free, (plan.end + timedelta(days=3), number))
    itinerary_of = {
        idx: "%s-%03d" % (container_of[idx], sequence_of[idx]) for idx in container_of
    }
    return container_of, itinerary_of


def generate(cfg: GenConfig) -> Tuple[List[CsmRecord], GroundTruth]:
    """Build the CSM stream and the injected-anomaly ground truth.

    Deterministic for a fixed config: same seed, byte-identical output.
    """
    cfg.validate()
    rng = Random(cfg.seed)
    world = _World(cfg, rng)
    n = cfg.itinerary_count

    # lay out which slots carry injections (each takes its slot plus the
    # following one for the witness)
    injections: List[Tuple[int, str]] = []
    total_injected = cfg.injected_loops + cfg.injected_unnecessary
    if total_injected:
        stride = n // total_injected
        kinds = ["loop"] * cfg.injected_loops + ["unnecessary"] * cfg.injected_unnecessary
        for j, kind in enumerate(kinds):
            injections.append((min(j * stride, n - 2), kind))
    injection_at = dict(injections)
    if len(injection_at) != len(injections):
        raise InfeasibleConfigError("itinerary_count too small to spread injections")

    plans: List[_Plan] = []
    truth_slots: List[Tuple[int, str]] = []
    slot = 0
    while slot < n:
        kind = injection_at.get(slot)
        if kind == "loop":
            plan, witness = _plan_loop(world, slot)
            plans.extend([plan, witness])
            truth_slots.append((slot, "loop"))
            slot += 2
        elif kind == "unnecessary":
            plan, witness = _plan_unnecessary(world, slot)
            plans.extend([plan, witness])
            truth_slots.append((slot, "unnecessary"))
            slot += 2
        else:
            plans.append(_plan_normal(world, slot))
            slot += 1

    latest = max(p.end for p in plans)
    if latest > cfg.date_end:
        raise InfeasibleConfigError(
            "generated events run past date_end (%s > %s); widen the span"
            % (latest, cfg.date_end)
        )

    container_of, itinerary_of = _assign_containers(cfg, plans, rng)

    truth = GroundTruth()
    for slot, kind in truth_slots:
        truth.entries[itinerary_of[slot]] = kind

    records: List[CsmRecord] = []
    emit_order = sorted(plans, key=lambda p: (container_of[p.index], p.start, p.index))
    csm_number = 10_000_000
    for plan in emit_order:
        for ev in plan.events:
            phrases = _PHRASES[ev.phrase_kind]
            records.append(
                CsmRecord(
                    csm_id=str(csm_number),
                    container_id=container_of[plan.index],
                    time=ev.time,
                    raw_event_text=phrases[csm_number % len(phrases)],
                    location=ev.port,
                    loading_status=ev.status,
                    vessel_name=ev.vessel,
                )
            )
            csm_number += 1
    return records, truth
