"""Typed knowledge graph: taxonomy, roles, individuals and role edges.

The graph holds one individual per itinerary, trip, event, container, vessel,
port, carrier and timestamp literal, with role edges mirroring the domain
design: itineraries point at their events and source/destination ports,
events at their locations, timestamps and vessels, and consecutive events of
one sequence are chained with the transitive successor role ``hasNextEvent``.

Concept and role names follow one canonical spelling, but lookups accept the
underscore spellings used in query files (``Container_itinerary``,
``Transshipment_Event``, ``hasNextVesselEvent``); the last two are genuine
aliases, the rest normalise automatically. ``hasNextVesselEvent`` and
``hasVPort`` are stored through their base roles and restricted to vessel
event endpoints at lookup time.

A graph is built single-writer, then sealed; afterwards it is immutable and
safe to share across any number of concurrent query evaluators. Transitive
closure is computed on demand (chains are short) and optionally memoised
per query; memo entries are insert-only and idempotent.

Timestamp individuals carry the canonical literal ``"<Dow> YYYY-MM-DD"``:
the ISO date sits at 1-indexed offset 5, length 10, which is what the
substring binds in the query dialect rely on.
"""

import os
import re
import sys
from dataclasses import dataclass, field
from datetime import date
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple
from urllib.parse import quote, unquote

from .events import Location, TopClass, slug, timestamp_literal
from .linking import BindingKind, TransshipmentBinding
from .segmentation import ContainerItinerary
from .vessels import VesselEvent, VesselEventKind, VesselTrip


class GraphError(ValueError):
    pass


class GraphTypeError(GraphError):
    """An edge or individual violates the schema; carries the offending triple."""


class GraphFormatError(GraphError):
    """A serialized graph file is malformed: wrong magic or version, or a
    truncated or corrupt record."""


class SealedGraphError(GraphError):
    """Mutation attempted after seal, or query before seal."""


_NORM_RE = re.compile(r"[^a-z0-9]")
# a "%" that does not start a two-digit hex escape
_BAD_ESCAPE = re.compile(r"%(?![0-9A-Fa-f]{2})")


def _unescape(value: str) -> Optional[str]:
    """A saved attribute value, or None if its percent-escapes are malformed
    or do not decode as UTF-8 (loading it would not save back the same)."""
    if "%" not in value:
        return value
    if _BAD_ESCAPE.search(value):
        return None
    try:
        return unquote(value, errors="strict")
    except UnicodeDecodeError:
        return None


def _norm(name: str) -> str:
    return _NORM_RE.sub("", name.lower())


# ---------------------------------------------------------------------------
# Concept taxonomy


class ConceptTaxonomy:
    """Acyclic single-parent concept hierarchy with reflexive subsumption."""

    def __init__(self):
        self._parent: Dict[str, Optional[str]] = {}
        self._children: Dict[str, List[str]] = {}
        self._by_norm: Dict[str, str] = {}
        self._aliases: Dict[str, str] = {}
        self._ancestor_cache: Dict[str, List[str]] = {}
        self._ancestor_set_cache: Dict[str, frozenset] = {}

    def add(self, name: str, parent: Optional[str] = None) -> None:
        if name in self._parent:
            raise GraphError("concept %s already declared" % name)
        if parent is not None and parent not in self._parent:
            raise GraphError("unknown parent concept %s" % parent)
        self._parent[name] = parent
        self._children.setdefault(name, [])
        if parent is not None:
            self._children[parent].append(name)
        self._by_norm[_norm(name)] = name
        self._ancestor_cache.clear()
        self._ancestor_set_cache.clear()

    def add_alias(self, alias: str, canonical: str) -> None:
        if canonical not in self._parent:
            raise GraphError("unknown concept %s" % canonical)
        self._aliases[_norm(alias)] = canonical

    def __contains__(self, name: str) -> bool:
        return name in self._parent

    def concepts(self) -> List[str]:
        return sorted(self._parent)

    def parent(self, name: str) -> Optional[str]:
        return self._parent[name]

    def resolve(self, name: str) -> Optional[str]:
        if name in self._parent:
            return name
        key = _norm(name)
        return self._by_norm.get(key) or self._aliases.get(key)

    def require(self, name: str) -> str:
        resolved = self.resolve(name)
        if resolved is None:
            raise GraphError("unknown concept name %r" % name)
        return resolved

    def ancestors_or_self(self, name: str) -> List[str]:
        start = self.require(name)
        cached = self._ancestor_cache.get(start)
        if cached is not None:
            return cached
        out: List[str] = []
        cursor: Optional[str] = start
        while cursor is not None:
            if cursor in out:
                raise GraphError("concept cycle through %s" % cursor)
            out.append(cursor)
            cursor = self._parent[cursor]
        self._ancestor_cache[start] = out
        return out

    def descendants_or_self(self, name: str) -> List[str]:
        root = self.require(name)
        out, stack = [], [root]
        while stack:
            cursor = stack.pop()
            out.append(cursor)
            stack.extend(reversed(self._children[cursor]))
        return out

    def is_subclass(self, child: str, ancestor: str) -> bool:
        """True iff ``ancestor`` is reachable from ``child`` (reflexively)."""
        target = ancestor if ancestor in self._parent else self.require(ancestor)
        cached = self._ancestor_set_cache.get(child)
        if cached is None:
            chain = self.ancestors_or_self(child)
            cached = frozenset(chain)
            self._ancestor_set_cache[chain[0]] = cached
        return target in cached

    def validate_acyclic(self) -> None:
        for name in self._parent:
            self.ancestors_or_self(name)


# ---------------------------------------------------------------------------
# Roles


@dataclass(frozen=True)
class Role:
    name: str
    domain: str
    range: str
    transitive: bool = False
    alias_of: Optional[str] = None


THING = "Thing"

_BUILTIN_CONCEPTS: List[Tuple[str, Optional[str]]] = [
    (THING, None),
    ("Event", THING),
    ("ContainerEvent", "Event"),
    ("TripStart", "ContainerEvent"),
    ("ReceivedAtOrigin", "TripStart"),
    ("GateIn", "TripStart"),
    ("ReleasedToShipperForCargoStuffing", "TripStart"),
    ("MaritimeTransshipment", "ContainerEvent"),
    ("LoadedToVessel", "MaritimeTransshipment"),
    ("DischargedAtPort", "MaritimeTransshipment"),
    ("TransshipmentLoad", "MaritimeTransshipment"),
    ("TransshipmentDischarge", "MaritimeTransshipment"),
    ("TripEnd", "ContainerEvent"),
    ("GateOut", "TripEnd"),
    ("FinalDestination", "TripEnd"),
    ("EmptyReturned", "TripEnd"),
    ("Other", "ContainerEvent"),
    ("Unknown", "Other"),
    ("VesselEvent", "Event"),
    ("Arrival", "VesselEvent"),
    ("Departure", "VesselEvent"),
    ("MovingObject", THING),
    ("Container", "MovingObject"),
    ("Vessel", "MovingObject"),
    ("Location", THING),
    ("Port", "Location"),
    ("Itinerary", THING),
    ("ContainerItinerary", "Itinerary"),
    ("VesselTrip", "Itinerary"),
    ("Timestamp", THING),
    ("Carrier", THING),
]

# Query files write these names; they do not normalise onto the canonical ones.
_CONCEPT_ALIASES = {
    "Transshipment_Event": "MaritimeTransshipment",
    "Maritime_Container_Itinerary": "ContainerItinerary",
}

_BUILTIN_ROLES: List[Role] = [
    Role("hasMO", THING, "MovingObject"),
    Role("hasLocation", "Event", "Location"),
    Role("hasTimestamp", "Event", "Timestamp"),
    Role("hasTime", "Event", "Timestamp", alias_of="hasTimestamp"),
    Role("hasNextEvent", "Event", "Event", transitive=True),
    Role("hasNextVesselEvent", "VesselEvent", "VesselEvent", transitive=True,
         alias_of="hasNextEvent"),
    Role("hasVPort", "VesselEvent", "Port", alias_of="hasLocation"),
    Role("hasContainerEvent", "ContainerItinerary", "ContainerEvent"),
    Role("hasCISourcePort", "ContainerItinerary", "Port"),
    Role("hasCIDestinationPort", "ContainerItinerary", "Port"),
    Role("hasLoadingVessel", "ContainerEvent", "Vessel"),
    Role("hasDischargingVessel", "ContainerEvent", "Vessel"),
    Role("hasLoadingVesselEvent", "ContainerEvent", "VesselEvent"),
    Role("hasDischargingVesselEvent", "ContainerEvent", "VesselEvent"),
    Role("hasEndTime", "ContainerItinerary", "Timestamp"),
    Role("belongsTo", "Container", "Carrier"),
]

_TOP_CLASS_CONCEPT = {
    TopClass.TRIP_START: "TripStart",
    TopClass.MARITIME_TRANSSHIPMENT: "MaritimeTransshipment",
    TopClass.TRIP_END: "TripEnd",
    TopClass.OTHER: "Other",
}


def builtin_taxonomy() -> ConceptTaxonomy:
    tax = ConceptTaxonomy()
    for name, parent in _BUILTIN_CONCEPTS:
        tax.add(name, parent)
    for alias, canonical in _CONCEPT_ALIASES.items():
        tax.add_alias(alias, canonical)
    return tax


# ---------------------------------------------------------------------------
# The graph


@dataclass
class Individual:
    concept: str
    attrs: Dict[str, str] = field(default_factory=dict)


class KnowledgeGraph:
    FORMAT_MAGIC = "cargokg-graph"
    FORMAT_VERSION = 1

    def __init__(self):
        self.taxonomy = builtin_taxonomy()
        self.roles: Dict[str, Role] = {r.name: r for r in _BUILTIN_ROLES}
        self._roles_by_norm = {_norm(r.name): r.name for r in _BUILTIN_ROLES}
        self.individuals: Dict[str, Individual] = {}
        self.port_nominals: Dict[str, str] = {}  # port name key -> individual id
        self._out: Dict[str, Dict[str, List[str]]] = {r.name: {} for r in _BUILTIN_ROLES}
        self._in: Dict[str, Dict[str, List[str]]] = {r.name: {} for r in _BUILTIN_ROLES}
        self._edge_count = 0
        self._extra_concepts: List[Tuple[str, str]] = []
        self._instances_exact: Dict[str, List[str]] = {}
        self._instances_closure: Dict[str, List[str]] = {}
        self._branching: Dict[str, Tuple[float, float]] = {}
        self._guarded: Dict[Tuple[str, str], Dict[str, List[str]]] = {}
        self._edge_checks: Dict[Tuple[str, str, str], Tuple[bool, bool]] = {}
        self.sealed = False

    # -- construction -------------------------------------------------------

    def _check_unsealed(self) -> None:
        if self.sealed:
            raise SealedGraphError("graph is sealed; no mutation after seal")

    def add_concept(self, name: str, parent: str) -> None:
        """Extend the event taxonomy (vocabulary-file leaves)."""
        self._check_unsealed()
        self.taxonomy.add(name, self.taxonomy.require(parent))
        self._extra_concepts.append((name, self.taxonomy.require(parent)))

    def add_individual(self, node_id: str, concept: str, **attrs: str) -> None:
        self._check_unsealed()
        resolved = self.taxonomy.resolve(concept)
        if resolved is None:
            raise GraphTypeError(
                "individual %s declares unknown concept %s" % (node_id, concept)
            )
        node_id = sys.intern(node_id)
        if node_id in self.individuals:
            raise GraphError("individual %s declared twice" % node_id)
        self.individuals[node_id] = Individual(resolved, {k: str(v) for k, v in attrs.items()})

    def resolve_role(self, name: str) -> Role:
        role = self.roles.get(name)
        if role is not None:
            return role
        role_name = self._roles_by_norm.get(_norm(name))
        if role_name is None:
            raise GraphError("unknown role name %r" % name)
        return self.roles[role_name]

    def base_role(self, role: Role) -> Role:
        return self.roles[role.alias_of] if role.alias_of else role

    def add_edge(self, subject: str, role_name: str, obj: str) -> None:
        self._check_unsealed()
        role = self.resolve_role(role_name)
        s_ind = self.individuals.get(subject)
        o_ind = self.individuals.get(obj)
        if s_ind is None or o_ind is None:
            raise GraphTypeError(
                "edge (%s, %s, %s) references an unknown individual"
                % (subject, role.name, obj)
            )
        # concept combinations are few; memoise the domain/range verdicts
        check = (s_ind.concept, role.name, o_ind.concept)
        verdict = self._edge_checks.get(check)
        if verdict is None:
            verdict = (
                self.taxonomy.is_subclass(s_ind.concept, role.domain),
                self.taxonomy.is_subclass(o_ind.concept, role.range),
            )
            self._edge_checks[check] = verdict
        if not verdict[0]:
            raise GraphTypeError(
                "edge (%s, %s, %s): subject concept %s outside domain %s"
                % (subject, role.name, obj, s_ind.concept, role.domain)
            )
        if not verdict[1]:
            raise GraphTypeError(
                "edge (%s, %s, %s): object concept %s outside range %s"
                % (subject, role.name, obj, o_ind.concept, role.range)
            )
        base = self.base_role(role).name
        subject, obj = sys.intern(subject), sys.intern(obj)
        self._out[base].setdefault(subject, []).append(obj)
        self._in[base].setdefault(obj, []).append(subject)
        self._edge_count += 1

    def seal(self) -> None:
        """Freeze the graph: sort adjacency, build the instance index."""
        if self.sealed:
            return
        self.taxonomy.validate_acyclic()
        for index in (self._out, self._in):
            for adjacency in index.values():
                for bucket in adjacency.values():
                    bucket.sort()
        by_concept: Dict[str, List[str]] = {}
        for node_id, ind in self.individuals.items():
            by_concept.setdefault(ind.concept, []).append(node_id)
            if ind.concept == "Port":
                self.port_nominals[ind.attrs.get("name", node_id)] = node_id
        self._instances_exact = {c: sorted(ids) for c, ids in by_concept.items()}
        self.sealed = True

    # -- read access --------------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.individuals

    def concept_of(self, node_id: str) -> str:
        return self.individuals[node_id].concept

    def attr(self, node_id: str, key: str) -> Optional[str]:
        return self.individuals[node_id].attrs.get(key)

    def literal_form(self, node_id: str) -> str:
        """The literal a query sees for a node: its value attribute, else the id."""
        ind = self.individuals.get(node_id)
        if ind is not None and "value" in ind.attrs:
            return ind.attrs["value"]
        return node_id

    def is_subclass(self, child: str, ancestor: str) -> bool:
        return self.taxonomy.is_subclass(child, ancestor)

    def instances_of(self, concept: str) -> List[str]:
        """All individuals whose concept is subsumed by ``concept``."""
        concept = self.taxonomy.require(concept)
        cached = self._instances_closure.get(concept)
        if cached is None:
            out: List[str] = []
            for c in self.taxonomy.descendants_or_self(concept):
                out.extend(self._instances_exact.get(c, ()))
            cached = sorted(out)
            self._instances_closure[concept] = cached
        return cached

    def _guard(self, role: Role, node_id: str, end: str) -> bool:
        """An alias role's restriction of one end to its domain or range."""
        bound = role.domain if end == "domain" else role.range
        return self.taxonomy.is_subclass(self.concept_of(node_id), bound)

    def adjacency(self, role_name: str, direction: str) -> Mapping[str, List[str]]:
        """Direct neighbours along a role, for a sealed graph: ``"out"`` maps
        each subject to its objects, ``"in"`` each object to its subjects,
        sorted. Read-only.

        An alias role's map keeps its domain/range guard: it holds every node
        of the guarded end (with an empty list if nothing passes), and only
        the neighbours that pass the other end's guard. It is built on first
        use and kept.
        """
        if not self.sealed:
            raise SealedGraphError("adjacency lookups require a sealed graph")
        role = self.resolve_role(role_name)
        index = self._out if direction == "out" else self._in
        base = index[self.base_role(role).name]
        if role.alias_of is None:
            return base
        key = (role.name, direction)
        guarded = self._guarded.get(key)
        if guarded is None:
            near, far = ("domain", "range") if direction == "out" else ("range", "domain")
            guarded = {
                node: [n for n in nodes if self._guard(role, n, far)]
                for node, nodes in base.items()
                if self._guard(role, node, near)
            }
            self._guarded[key] = guarded
        return guarded

    def objects(self, subject: str, role_name: str) -> List[str]:
        return self.adjacency(role_name, "out").get(subject, [])

    def subjects(self, obj: str, role_name: str) -> List[str]:
        return self.adjacency(role_name, "in").get(obj, [])

    def role_pairs(self, role_name: str) -> Iterator[Tuple[str, str]]:
        """All direct (subject, object) pairs of a role, sorted."""
        adjacency = self.adjacency(role_name, "out")
        for subject in sorted(adjacency):
            for obj in adjacency[subject]:
                yield subject, obj

    def edge_count(self) -> int:
        return self._edge_count

    def role_branching(self, role_name: str) -> Tuple[float, float]:
        """Expected (objects per domain instance, subjects per range instance)
        of a role: how much a join step along it multiplies rows. Cached."""
        role = self.resolve_role(role_name)
        base = self.base_role(role)
        cached = self._branching.get(role.name)
        if cached is None:
            # edges live under the base role, so size against its concepts;
            # an alias restriction can only shrink the real branching
            edges = sum(len(v) for v in self._out[base.name].values())
            domain_size = max(1, len(self.instances_of(base.domain)))
            range_size = max(1, len(self.instances_of(base.range)))
            cached = (edges / domain_size, edges / range_size)
            self._branching[role.name] = cached
        return cached

    def count_by_concept(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for ind in self.individuals.values():
            counts[ind.concept] = counts.get(ind.concept, 0) + 1
        return counts

    # -- transitive closure -------------------------------------------------

    def transitive_successors(
        self,
        node_id: str,
        role_name: str = "hasNextEvent",
        memo: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> Tuple[str, ...]:
        """Reflexive-free transitive closure of direct edges from ``node_id``.

        Requires a sealed graph and a transitive role. With an optional memo
        dict the closure of shared suffixes is reused within one query.
        """
        if not self.sealed:
            raise SealedGraphError("transitive closure requires a sealed graph")
        role = self.resolve_role(role_name)
        if not role.transitive:
            raise GraphError("role %s is not transitive" % role.name)
        if memo is not None and node_id in memo:
            return memo[node_id]
        base = self.base_role(role).name
        adjacency = self._out[base]
        seen: Set[str] = set()
        order: List[str] = []
        stack = list(adjacency.get(node_id, ()))
        while stack:
            cursor = stack.pop()
            if cursor in seen or cursor == node_id:
                continue
            if memo is not None and cursor in memo:
                for reached in memo[cursor]:
                    if reached not in seen and reached != node_id:
                        seen.add(reached)
                        order.append(reached)
                seen.add(cursor)
                order.append(cursor)
                continue
            seen.add(cursor)
            order.append(cursor)
            stack.extend(adjacency.get(cursor, ()))
        result = tuple(sorted(order))
        if role.alias_of is not None:
            result = tuple(
                n for n in result if self._guard(role, n, "range")
            )
        if memo is not None:
            memo[node_id] = result
        return result

    def transitive_predecessors(
        self,
        node_id: str,
        role_name: str = "hasNextEvent",
        memo: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> Tuple[str, ...]:
        if not self.sealed:
            raise SealedGraphError("transitive closure requires a sealed graph")
        role = self.resolve_role(role_name)
        if not role.transitive:
            raise GraphError("role %s is not transitive" % role.name)
        if memo is not None and node_id in memo:
            return memo[node_id]
        base = self.base_role(role).name
        adjacency = self._in[base]
        seen: Set[str] = set()
        stack = list(adjacency.get(node_id, ()))
        while stack:
            cursor = stack.pop()
            if cursor in seen or cursor == node_id:
                continue
            seen.add(cursor)
            stack.extend(adjacency.get(cursor, ()))
        result = tuple(sorted(seen))
        if role.alias_of is not None:
            result = tuple(n for n in result if self._guard(role, n, "domain"))
        if memo is not None:
            memo[node_id] = result
        return result

    # -- serialization ------------------------------------------------------

    def save(self, path: str) -> None:
        lines: List[str] = []
        individuals = sorted(self.individuals)
        edges: List[Tuple[str, str, str]] = []
        for role_name in sorted(self._out):
            adjacency = self._out[role_name]
            for subject in adjacency:
                for obj in adjacency[subject]:
                    edges.append((subject, role_name, obj))
        edges.sort()
        lines.append(
            "%s %d %d %d %d"
            % (
                self.FORMAT_MAGIC,
                self.FORMAT_VERSION,
                len(self._extra_concepts),
                len(individuals),
                len(edges),
            )
        )
        for name, parent in sorted(self._extra_concepts):
            lines.append("concept %s %s" % (name, parent))
        for node_id in individuals:
            ind = self.individuals[node_id]
            parts = ["individual", node_id, ind.concept]
            for key in sorted(ind.attrs):
                parts.append("%s=%s" % (key, quote(ind.attrs[key], safe="")))
            lines.append(" ".join(parts))
        for subject, role_name, obj in edges:
            lines.append("edge %s %s %s" % (subject, role_name, obj))
        # write beside the target, then rename over it: a failed save leaves
        # the previous file as it was
        partial = "%s.%d.tmp" % (path, os.getpid())
        try:
            with open(partial, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(partial, path)
        except BaseException:
            if os.path.exists(partial):
                os.remove(partial)
            raise

    @classmethod
    def load(cls, path: str) -> "KnowledgeGraph":
        graph = cls()
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 5 or header[0] != cls.FORMAT_MAGIC:
                raise GraphFormatError("not a %s file: %s" % (cls.FORMAT_MAGIC, path))
            if int(header[1]) != cls.FORMAT_VERSION:
                raise GraphFormatError(
                    "format version %s unsupported (expected %d)"
                    % (header[1], cls.FORMAT_VERSION)
                )
            n_concepts, n_individuals, n_edges = (int(x) for x in header[2:5])
            for number, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split(" ")
                kind = parts[0]
                if kind == "edge" and len(parts) == 4:
                    graph.add_edge(parts[1], parts[2], parts[3])
                elif kind == "individual" and len(parts) >= 3:
                    attrs = {}
                    for chunk in parts[3:]:
                        key, _, value = chunk.partition("=")
                        text = _unescape(value)
                        if text is None:
                            raise GraphFormatError(
                                "line %d: bad percent-escape in attribute %r" % (number, chunk)
                            )
                        attrs[key] = text
                    graph.add_individual(parts[1], parts[2], **attrs)
                elif kind == "concept" and len(parts) == 3:
                    graph.add_concept(parts[1], parts[2])
                elif kind in ("edge", "individual", "concept"):
                    raise GraphFormatError(
                        "line %d: malformed %s record: %r" % (number, kind, line.rstrip("\n"))
                    )
                elif kind:
                    raise GraphFormatError("line %d: unknown record kind %r" % (number, kind))
        if len(graph.individuals) != n_individuals or graph.edge_count() != n_edges:
            raise GraphFormatError(
                "truncated graph file: header promised %d individuals / %d edges"
                % (n_individuals, n_edges)
            )
        graph.seal()
        return graph


# ---------------------------------------------------------------------------
# Node id builders shared with population and the detectors


def port_node(port: Location) -> str:
    return "port_" + port.key


def vessel_node(vessel_id: str) -> str:
    return "ves_" + vessel_id


def container_node(container_id: str) -> str:
    return "cont_" + slug(container_id)


def carrier_node(container_id: str) -> str:
    return "car_" + container_id[:3].lower()


def container_event_node(event_id: str) -> str:
    return "ce_" + slug(event_id)


def itinerary_node(itinerary_id: str) -> str:
    return "ci_" + slug(itinerary_id)


def timestamp_node(d: date) -> str:
    return "ts_" + d.isoformat()


# ---------------------------------------------------------------------------
# Population


def populate(
    itineraries: Iterable[ContainerItinerary],
    vessel_events: Iterable[VesselEvent],
    trips: Iterable[VesselTrip],
    bindings: Iterable[TransshipmentBinding],
) -> KnowledgeGraph:
    """Build and seal the knowledge graph from the three preparation stages.

    Emits one individual per itinerary, trip, event, container, vessel, port,
    carrier and distinct timestamp, role edges for the design's structure,
    direct ``hasNextEvent`` chains per sequence, and the transshipment
    bindings as hasLoadingVesselEvent / hasDischargingVesselEvent edges.
    Type-check violations abort with the offending triple.
    """
    graph = KnowledgeGraph()
    itineraries = list(itineraries)
    vessel_events = list(vessel_events)
    trips = list(trips)

    for it in itineraries:
        for e in it.events:
            leaf = e.ref_event.leaf
            if graph.taxonomy.resolve(leaf) is None:
                graph.add_concept(leaf, _TOP_CLASS_CONCEPT[e.ref_event.top_class])

    ports: Dict[str, Location] = {}
    dates: Set[date] = set()
    containers: Dict[str, str] = {}
    vessel_labels: Dict[str, str] = {}

    for it in itineraries:
        containers.setdefault(it.container_id, container_node(it.container_id))
        ports.setdefault(it.source_port.key, it.source_port)
        if it.destination_port is not None:
            ports.setdefault(it.destination_port.key, it.destination_port)
        dates.add(it.end_time)
        for e in it.events:
            ports.setdefault(e.location.key, e.location)
            dates.add(e.time)
            for name in (e.loading_vessel, e.discharging_vessel):
                if name:
                    from .vessels import vessel_key

                    vessel_labels.setdefault(vessel_key(name), name)
    for ve in vessel_events:
        ports.setdefault(ve.port.key, ve.port)
        dates.add(ve.time)
        vessel_labels.setdefault(ve.vessel_id, ve.vessel_id)

    for key in sorted(ports):
        port = ports[key]
        graph.add_individual(
            "port_" + key, "Port", name=port.name, country=port.country
        )
    for d in sorted(dates):
        graph.add_individual(timestamp_node(d), "Timestamp", value=timestamp_literal(d))
    for vessel_id in sorted(vessel_labels):
        graph.add_individual(
            vessel_node(vessel_id), "Vessel", label=vessel_labels[vessel_id]
        )
    carriers: Set[str] = set()
    for container_id in sorted(containers):
        node = containers[container_id]
        carrier = carrier_node(container_id)
        if carrier not in carriers:
            graph.add_individual(carrier, "Carrier", label=container_id[:3])
            carriers.add(carrier)
        graph.add_individual(node, "Container", label=container_id)
        graph.add_edge(node, "belongsTo", carrier)

    from .vessels import vessel_key

    for it in itineraries:
        ci = itinerary_node(it.itinerary_id)
        graph.add_individual(
            ci,
            "ContainerItinerary",
            label=it.itinerary_id,
            completeness=it.completeness.value,
        )
        graph.add_edge(ci, "hasMO", containers[it.container_id])
        graph.add_edge(ci, "hasCISourcePort", port_node(it.source_port))
        if it.destination_port is not None:
            graph.add_edge(ci, "hasCIDestinationPort", port_node(it.destination_port))
        graph.add_edge(ci, "hasEndTime", timestamp_node(it.end_time))
        previous: Optional[str] = None
        for e in it.events:
            ce = container_event_node(e.event_id)
            graph.add_individual(ce, e.ref_event.leaf, label=e.event_id)
            graph.add_edge(ci, "hasContainerEvent", ce)
            graph.add_edge(ce, "hasMO", containers[it.container_id])
            graph.add_edge(ce, "hasLocation", port_node(e.location))
            graph.add_edge(ce, "hasTimestamp", timestamp_node(e.time))
            if e.loading_vessel:
                graph.add_edge(
                    ce, "hasLoadingVessel", vessel_node(vessel_key(e.loading_vessel))
                )
            if e.discharging_vessel:
                graph.add_edge(
                    ce,
                    "hasDischargingVessel",
                    vessel_node(vessel_key(e.discharging_vessel)),
                )
            if previous is not None:
                graph.add_edge(previous, "hasNextEvent", ce)
            previous = ce

    order = {
        VesselEventKind.ARRIVAL: 0,
        VesselEventKind.DEPARTURE: 1,
    }
    by_vessel: Dict[str, List[VesselEvent]] = {}
    for ve in vessel_events:
        by_vessel.setdefault(ve.vessel_id, []).append(ve)
    for vessel_id in sorted(by_vessel):
        chain = sorted(
            by_vessel[vessel_id], key=lambda e: (e.time, order[e.kind], e.event_id)
        )
        previous = None
        for ve in chain:
            graph.add_individual(ve.event_id, ve.kind.value)
            graph.add_edge(ve.event_id, "hasMO", vessel_node(vessel_id))
            graph.add_edge(ve.event_id, "hasLocation", port_node(ve.port))
            graph.add_edge(ve.event_id, "hasTimestamp", timestamp_node(ve.time))
            if previous is not None:
                graph.add_edge(previous, "hasNextEvent", ve.event_id)
            previous = ve.event_id

    for trip in trips:
        graph.add_individual(
            trip.trip_id,
            "VesselTrip",
            departure_event=trip.departure.event_id,
            arrival_event=trip.arrival.event_id,
            departure_port=str(trip.departure.port),
            arrival_port=str(trip.arrival.port),
            departure_time=trip.departure.time.isoformat(),
            arrival_time=trip.arrival.time.isoformat(),
        )
        graph.add_edge(trip.trip_id, "hasMO", vessel_node(trip.vessel_id))

    binding_role = {
        BindingKind.LOAD_TO_DEPARTURE: "hasLoadingVesselEvent",
        BindingKind.DISCHARGE_FROM_ARRIVAL: "hasDischargingVesselEvent",
    }
    for b in bindings:
        graph.add_edge(
            container_event_node(b.container_event_id),
            binding_role[b.kind],
            b.vessel_event_id,
        )

    graph.seal()
    return graph
