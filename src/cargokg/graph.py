"""Typed knowledge graph: taxonomy, roles, individuals and role edges.

The graph holds one individual per itinerary, trip, event, container, vessel,
port, carrier and timestamp literal, with role edges mirroring the domain
design: itineraries point at their events and source/destination ports, a
vessel trip at its vessel and its departure and arrival events, events at
their locations, timestamps and vessels, and consecutive events of one
sequence are chained with the transitive successor role ``hasNextEvent``.

Concept and role names follow one canonical spelling, but lookups accept the
underscore spellings used in query files (``Container_itinerary``,
``Trip_Start``) and the concept aliases ``Transshipment_Event`` and
``Maritime_Container_Itinerary``. The role table also declares the alias
roles ``hasNextVesselEvent``, ``hasVPort`` and ``hasTime``: each is its base
role (``hasNextEvent``, ``hasLocation``, ``hasTimestamp``) narrowed to its
own domain and range (``hasTime`` is a plain rename), so it needs no storage
of its own. The graph stores and serves base roles only: the query engine
rewrites an alias atom into its base role atom plus type atoms
(``engine.resolve_names``), and an edge or a lookup given an alias name
raises :class:`GraphError`.

A graph is built single-writer, then sealed. It is stored compactly, in
plain dicts with no object per individual:

- ``individuals`` maps each id straight to its canonical concept name;
- attributes live in one column per key, ``key -> {id -> value}``, so an
  individual without attributes costs nothing beyond its concept entry;
- an edge is stored once, in the forward (subject to objects) index of its
  role. While the graph is built, a subject's first object is stored bare
  and a list is made only when a second arrives; seal turns every bucket
  into a sorted tuple, so the buckets a sealed graph hands out are
  read-only by type.

Seal derives the instance index and the port nominals from the contents
alone, not from the order of insertion, so a populated graph and its saved
and loaded copy answer alike. A role's reverse (object to subjects) index is
built from its sorted forward index the first time it is read, with tuple
buckets too, so roles nobody reads backwards never pay for one. A sealed
graph takes no more individuals or edges, but it is not immutable: its
reverse indexes and its instance-closure and branching caches fill lazily on
first use. Only a sealed graph serves these reads, so no cache holds a graph
half built. The mappings it hands out are read-only. Transitive closure is
computed on demand (chains are short); the engine memoises closures per
query call.

Timestamp individuals carry the canonical literal ``"<Dow> YYYY-MM-DD"``:
the ISO date sits at 1-indexed offset 5, length 10, which is what the
substring binds in the query dialect rely on.
"""

import gc
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple, Union
from urllib.parse import quote, unquote

from .atomicfile import atomic_write
from .events import Location, TopClass, slug, timestamp_literal
from .linking import BindingKind, TransshipmentBinding
from .segmentation import ContainerItinerary
from .vessels import VesselEvent, VesselEventKind, VesselTrip, vessel_key


class GraphError(ValueError):
    pass


class GraphTypeError(GraphError):
    """An edge or individual violates the schema; carries the offending triple."""


class GraphFormatError(GraphError):
    """A serialized graph file is malformed: wrong magic or version, or a
    truncated or corrupt record."""


class SealedGraphError(GraphError):
    """Mutation attempted after seal, or query before seal."""


# individuals whose records save joins and writes at a time: some tens of
# KB of text per write
_SAVE_CHUNK = 256

_NORM_RE = re.compile(r"[^a-z0-9]")
# a character that quote(value, safe="") escapes
_NEEDS_QUOTE = re.compile(r"[^A-Za-z0-9_.~-]")
# a "%" that does not start a two-digit hex escape
_BAD_ESCAPE = re.compile(r"%(?![0-9A-Fa-f]{2})")
# the attribute column of a key no individual holds
_NO_COLUMN: Mapping[str, str] = MappingProxyType({})


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


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cyclic garbage collector off for the body, then restore it.

    The bulk stages (the ``ingest`` and ``build-kb`` commands, graph load)
    make hundreds of thousands of long-lived objects and no reference
    cycles, so the collections their allocations set off would only rescan
    objects that live on. Only a pause that found the collector on turns it
    back on, so pauses nest. Usable as a decorator too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# Concept taxonomy


class ConceptTaxonomy:
    """Single-parent concept hierarchy with reflexive subsumption. A concept
    is added under a parent already present, so the hierarchy is a tree by
    construction, and each concept's ancestors are fixed when it is added."""

    def __init__(self):
        self._parent: Dict[str, Optional[str]] = {}
        self._children: Dict[str, List[str]] = {}
        self._by_norm: Dict[str, str] = {}
        self._aliases: Dict[str, str] = {}
        self._ancestors: Dict[str, List[str]] = {}  # concept, its parent, ..., the root
        self._ancestor_sets: Dict[str, frozenset] = {}

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
        chain = [name] + (self._ancestors[parent] if parent is not None else [])
        self._ancestors[name] = chain
        self._ancestor_sets[name] = frozenset(chain)

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
        return self._ancestors[self.require(name)]

    def ancestor_map(self) -> Mapping[str, List[str]]:
        """Each concept's ``ancestors_or_self``, keyed by its canonical name
        only. The mapping returned is read-only."""
        return self._ancestors

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
        found = self._ancestor_sets.get(child)
        if found is None:
            found = self._ancestor_sets[self.require(child)]
        return target in found


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
    Role("hasDepartureEvent", "VesselTrip", "Departure"),
    Role("hasArrivalEvent", "VesselTrip", "Arrival"),
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


# a bucket of an index being built: a subject's (or object's) first
# neighbour bare, a list from the second on; seal freezes it to a tuple
_Bucket = Union[str, List[str], Tuple[str, ...]]


def _freeze(index: Dict[str, _Bucket]) -> None:
    """Turn every bucket of an index being built into a sorted tuple."""
    for key, bucket in index.items():
        index[key] = (bucket,) if bucket.__class__ is str else tuple(sorted(bucket))


class KnowledgeGraph:
    FORMAT_MAGIC = "cargokg-graph"
    FORMAT_VERSION = 2

    def __init__(self):
        self.taxonomy = builtin_taxonomy()
        self.roles: Dict[str, Role] = {r.name: r for r in _BUILTIN_ROLES}
        self._roles_by_norm = {_norm(r.name): r.name for r in _BUILTIN_ROLES}
        self.individuals: Dict[str, str] = {}  # id -> canonical concept name
        self._attrs: Dict[str, Dict[str, str]] = {}  # attribute key -> {id -> value}
        self.port_nominals: Dict[str, str] = {}  # port name key -> individual id
        # adjacency of the stored roles only: an alias role has no edges
        self._stored = {r.name: r for r in _BUILTIN_ROLES if r.alias_of is None}
        self._out: Dict[str, Dict[str, _Bucket]] = {name: {} for name in self._stored}
        self._in: Dict[str, Dict[str, Tuple[str, ...]]] = {}  # filled per role by _reverse
        self._edge_count = 0
        self._extra_concepts: List[Tuple[str, str]] = []
        self._instances_exact: Dict[str, List[str]] = {}
        self._instances_closure: Dict[str, List[str]] = {}
        self._branching: Dict[str, Tuple[float, float]] = {}
        self.sealed = False

    # -- construction -------------------------------------------------------

    def _check_unsealed(self) -> None:
        if self.sealed:
            raise SealedGraphError("graph is sealed; no mutation after seal")

    def add_concept(self, name: str, parent: str) -> None:
        """Extend the event taxonomy (vocabulary-file leaves)."""
        self._check_unsealed()
        if name.split() != [name]:
            # as for individual ids: such a name would not load back
            raise GraphTypeError("concept name %r is empty or holds whitespace" % name)
        self.taxonomy.add(name, self.taxonomy.require(parent))
        self._extra_concepts.append((name, self.taxonomy.require(parent)))

    def add_individual(self, node_id: str, concept: str, /, **attrs: str) -> None:
        self._check_unsealed()
        if node_id.split() != [node_id]:
            # a saved graph separates its fields by spaces and records by
            # line breaks: such an id would not load back
            raise GraphTypeError("individual id %r is empty or holds whitespace" % node_id)
        resolved = self.taxonomy.resolve(concept)
        if resolved is None:
            raise GraphTypeError(
                "individual %s declares unknown concept %s" % (node_id, concept)
            )
        node_id = sys.intern(node_id)
        if node_id in self.individuals:
            raise GraphError("individual %s declared twice" % node_id)
        columns = self._attrs
        if not columns.keys() >= attrs.keys():
            self._add_columns(attrs)
        for key, value in attrs.items():
            columns[key][node_id] = str(value)
        self.individuals[node_id] = resolved

    def _add_columns(self, keys: Iterable[str]) -> None:
        """Make the attribute columns of the keys that have none, after
        checking every such key: a saved attribute is ``key=value`` between
        spaces, so a key that is empty or holds whitespace or ``=`` would
        not load back."""
        new = [key for key in keys if key not in self._attrs]
        for key in new:
            if key.split() != [key] or "=" in key:
                raise GraphTypeError(
                    "attribute key %r is empty or holds whitespace or '='" % key
                )
        for key in new:
            self._attrs[sys.intern(key)] = {}

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

    def _stored_role(self, name: str) -> Role:
        """The role of a name, which must be a stored role, not an alias."""
        role = self.roles.get(name) or self.resolve_role(name)
        if role.alias_of is not None:
            raise GraphError(
                "role %s is an alias of %s; the graph stores and serves only its"
                " base role (queries expand aliases)" % (role.name, role.alias_of)
            )
        return role

    def add_edge(self, subject: str, role_name: str, obj: str) -> None:
        if self.sealed:
            raise SealedGraphError("graph is sealed; no mutation after seal")
        role = self._stored.get(role_name) or self._stored_role(role_name)
        s_concept = self.individuals.get(subject)
        o_concept = self.individuals.get(obj)
        if s_concept is None or o_concept is None:
            raise GraphTypeError(
                "edge (%s, %s, %s) references an unknown individual"
                % (subject, role.name, obj)
            )
        ancestors = self.taxonomy.ancestor_map()
        if role.domain not in ancestors[s_concept]:
            raise GraphTypeError(
                "edge (%s, %s, %s): subject concept %s outside domain %s"
                % (subject, role.name, obj, s_concept, role.domain)
            )
        if role.range not in ancestors[o_concept]:
            raise GraphTypeError(
                "edge (%s, %s, %s): object concept %s outside range %s"
                % (subject, role.name, obj, o_concept, role.range)
            )
        subject, obj = sys.intern(subject), sys.intern(obj)
        adjacency = self._out[role.name]
        bucket = adjacency.get(subject)
        if bucket is None:
            adjacency[subject] = obj
        elif bucket.__class__ is str:
            adjacency[subject] = [bucket, obj]
        else:
            bucket.append(obj)
        self._edge_count += 1

    def seal(self) -> None:
        """Freeze the graph: turn the forward index's buckets into sorted
        tuples and build the instance index. No reverse index is built
        here: each role's is built on its first read."""
        if self.sealed:
            return
        for adjacency in self._out.values():
            _freeze(adjacency)
        by_concept: Dict[str, List[str]] = {}
        for node_id, concept in self.individuals.items():
            by_concept.setdefault(concept, []).append(node_id)
        self._instances_exact = {c: sorted(ids) for c, ids in by_concept.items()}
        # in id order, whatever order the ports were declared in: of ports
        # sharing a display name, the last id wins
        names = self._attrs.get("name", _NO_COLUMN)
        for node_id in self._instances_exact.get("Port", ()):
            self.port_nominals[names.get(node_id, node_id)] = node_id
        self.sealed = True

    # -- read access --------------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.individuals

    def concept_of(self, node_id: str) -> str:
        return self.individuals[node_id]

    def attr(self, node_id: str, key: str) -> Optional[str]:
        if node_id not in self.individuals:
            raise KeyError(node_id)
        return self._attrs.get(key, _NO_COLUMN).get(node_id)

    def attrs(self, node_id: str) -> Dict[str, str]:
        """A node's attributes, as a fresh dict in key order."""
        if node_id not in self.individuals:
            raise KeyError(node_id)
        return {
            key: column[node_id]
            for key, column in sorted(self._attrs.items())
            if node_id in column
        }

    def literal_form(self, node_id: str) -> str:
        """The literal a query sees for a node: its value attribute, else the id."""
        return self._attrs.get("value", _NO_COLUMN).get(node_id, node_id)

    def is_subclass(self, child: str, ancestor: str) -> bool:
        return self.taxonomy.is_subclass(child, ancestor)

    def instances_of(self, concept: str) -> List[str]:
        """All individuals whose concept is subsumed by ``concept``, for a
        sealed graph. Cached."""
        if not self.sealed:
            raise SealedGraphError("instance lookups require a sealed graph")
        concept = self.taxonomy.require(concept)
        cached = self._instances_closure.get(concept)
        if cached is None:
            out: List[str] = []
            for c in self.taxonomy.descendants_or_self(concept):
                out.extend(self._instances_exact.get(c, ()))
            cached = sorted(out)
            self._instances_closure[concept] = cached
        return cached

    def adjacency(self, role_name: str, direction: str) -> Mapping[str, Tuple[str, ...]]:
        """Direct neighbours along a stored role, for a sealed graph:
        ``"out"`` maps each subject to its objects, ``"in"`` each object to
        its subjects, sorted. The first ``"in"`` read of a role builds its
        reverse index. The mapping returned is read-only."""
        if not self.sealed:
            raise SealedGraphError("adjacency lookups require a sealed graph")
        name = self._stored_role(role_name).name
        return self._out[name] if direction == "out" else self._reverse(name)

    def _reverse(self, name: str) -> Dict[str, Tuple[str, ...]]:
        """The reverse index of stored role ``name``, built on first read by
        walking the sealed forward index in subject order, so each object's
        subjects come out sorted, and frozen to tuples as seal freezes the
        forward index."""
        index = self._in.get(name)
        if index is None:
            index = {}
            forward = self._out[name]
            for subject in sorted(forward):
                for obj in forward[subject]:
                    bucket = index.get(obj)
                    if bucket is None:
                        index[obj] = subject
                    elif bucket.__class__ is str:
                        index[obj] = [bucket, subject]
                    else:
                        bucket.append(subject)
            _freeze(index)
            self._in[name] = index
        return index

    def objects(self, subject: str, role_name: str) -> Tuple[str, ...]:
        return self.adjacency(role_name, "out").get(subject, ())

    def subjects(self, obj: str, role_name: str) -> Tuple[str, ...]:
        return self.adjacency(role_name, "in").get(obj, ())

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
        of a stored role, for a sealed graph: how much a join step along it
        multiplies rows. Cached."""
        if not self.sealed:
            raise SealedGraphError("role statistics require a sealed graph")
        role = self._stored_role(role_name)
        cached = self._branching.get(role.name)
        if cached is None:
            edges = sum(len(v) for v in self._out[role.name].values())
            domain_size = max(1, len(self.instances_of(role.domain)))
            range_size = max(1, len(self.instances_of(role.range)))
            cached = (edges / domain_size, edges / range_size)
            self._branching[role.name] = cached
        return cached

    def count_by_concept(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for concept in self.individuals.values():
            counts[concept] = counts.get(concept, 0) + 1
        return counts

    # -- transitive closure -------------------------------------------------

    def transitive_successors(
        self, node_id: str, role_name: str = "hasNextEvent"
    ) -> Tuple[str, ...]:
        """Reflexive-free transitive closure of direct edges from ``node_id``,
        sorted. Requires a sealed graph and a stored transitive role."""
        return self._closure(node_id, role_name, "out")

    def transitive_predecessors(
        self, node_id: str, role_name: str = "hasNextEvent"
    ) -> Tuple[str, ...]:
        """The nodes whose transitive closure reaches ``node_id``, sorted."""
        return self._closure(node_id, role_name, "in")

    def _closure(self, node_id: str, role_name: str, direction: str) -> Tuple[str, ...]:
        if not self.sealed:
            raise SealedGraphError("transitive closure requires a sealed graph")
        role = self._stored_role(role_name)
        if not role.transitive:
            raise GraphError("role %s is not transitive" % role.name)
        adjacency = self._out[role.name] if direction == "out" else self._reverse(role.name)
        seen: Set[str] = set()
        stack = list(adjacency.get(node_id, ()))
        while stack:
            cursor = stack.pop()
            if cursor in seen or cursor == node_id:
                continue
            seen.add(cursor)
            stack.extend(adjacency.get(cursor, ()))
        return tuple(sorted(seen))

    # -- serialization ------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the graph to ``path`` in the format :meth:`load` reads.

        The header counts come from what the graph stores. Then come the
        extra concepts, the individuals in id order, each with its
        attributes in key order, and the edges in
        (subject, role, object) order: for each individual in id order,
        its stored roles in name order, each with its sorted objects. The
        records are joined and written ``_SAVE_CHUNK`` individuals at a
        time, so the file is never held whole in memory. Only seal sorts
        each subject's objects, so an unsealed graph is refused with
        :class:`SealedGraphError`. The file is replaced atomically: a failed
        save leaves the previous file as it was.
        """
        if not self.sealed:
            raise SealedGraphError("save requires a sealed graph")
        individuals = self.individuals
        ids = sorted(individuals)
        columns = sorted(self._attrs.items())
        roles = sorted(self._out.items())
        with atomic_write(path) as fh:
            fh.write(
                "%s %d %d %d %d\n"
                % (
                    self.FORMAT_MAGIC,
                    self.FORMAT_VERSION,
                    len(self._extra_concepts),
                    len(individuals),
                    self._edge_count,
                )
            )
            fh.write("".join("concept %s %s\n" % c for c in sorted(self._extra_concepts)))
            for start in range(0, len(ids), _SAVE_CHUNK):
                fh.write("".join([
                    _individual_record(node_id, individuals[node_id], columns)
                    for node_id in ids[start:start + _SAVE_CHUNK]
                ]))
            for start in range(0, len(ids), _SAVE_CHUNK):
                fh.write("".join([
                    "edge %s %s %s\n" % (subject, name, obj)
                    for subject in ids[start:start + _SAVE_CHUNK]
                    for name, adjacency in roles
                    for obj in adjacency.get(subject, ())
                ]))

    @classmethod
    @collector_paused()
    def load(cls, path: str) -> "KnowledgeGraph":
        """Read a file written by :meth:`save`, sealed. Whatever the file
        holds, this returns a sealed graph or raises :class:`GraphError`; a
        malformed file raises :class:`GraphFormatError` naming the line."""
        graph = cls()
        number = 1
        try:
            with open(path, encoding="utf-8") as fh:
                header = fh.readline().split()
                if len(header) != 5 or header[0] != cls.FORMAT_MAGIC:
                    raise GraphFormatError("not a %s file: %s" % (cls.FORMAT_MAGIC, path))
                try:
                    version, *counts = (int(x) for x in header[1:])
                except ValueError:
                    raise GraphFormatError(
                        "line 1: header fields must be integers: %r" % " ".join(header[1:])
                    ) from None
                if version != cls.FORMAT_VERSION:
                    raise GraphFormatError(
                        "format version %s unsupported (expected %d)"
                        % (header[1], cls.FORMAT_VERSION)
                    )
                for number, line in enumerate(fh, start=2):
                    parts = line.rstrip("\n").split(" ")
                    kind = parts[0]
                    if kind == "edge" and len(parts) == 4:
                        graph.add_edge(parts[1], parts[2], parts[3])
                    elif kind == "individual" and len(parts) >= 3:
                        attrs = {}
                        for chunk in parts[3:]:
                            key, sep, value = chunk.partition("=")
                            text = _unescape(value) if sep else None
                            if text is None:
                                raise GraphFormatError(
                                    "line %d: %s in attribute %r"
                                    % (number, "bad percent-escape" if sep else "no '='", chunk)
                                )
                            if key in attrs:
                                raise GraphFormatError(
                                    "line %d: attribute %r repeated" % (number, key)
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
        except UnicodeDecodeError:
            raise GraphFormatError(
                "line %d: not UTF-8 text" % _first_undecodable_line(path)
            ) from None
        except GraphFormatError:
            raise
        except GraphError as err:
            # a record that parses but breaks a graph rule
            raise GraphFormatError("line %d: %s" % (number, err)) from err
        if counts != [len(graph._extra_concepts), len(graph.individuals), graph.edge_count()]:
            raise GraphFormatError(
                "truncated graph file: header promised %d concepts / %d individuals"
                " / %d edges" % tuple(counts)
            )
        graph.seal()
        return graph


def _individual_record(
    node_id: str, concept: str, columns: Iterable[Tuple[str, Mapping[str, str]]]
) -> str:
    """The saved record of one individual; ``columns`` are the graph's
    attribute columns, ``(key, {id -> value})``, in key order."""
    parts = ["individual", node_id, concept]
    for key, column in columns:
        value = column.get(node_id)
        if value is None:
            continue
        if _NEEDS_QUOTE.search(value):
            value = quote(value, safe="")
        parts.append("%s=%s" % (key, value))
    return " ".join(parts) + "\n"


def _first_undecodable_line(path: str) -> int:
    """The 1-based number of the first line of a file that is not UTF-8."""
    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


# ---------------------------------------------------------------------------
# Node id builders shared with population and the detectors


def port_node(port: Location) -> str:
    return "port_" + port.key


def vessel_node(vessel_id: str) -> str:
    return "ves_" + vessel_id


def container_node(container_id: str) -> str:
    return "cont_" + slug(container_id)


def carrier_node(container_id: str) -> str:
    return "car_" + slug(container_id[:3])


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
    """Build and seal the knowledge graph from the three preparation stages,
    in one pass over each input.

    Emits one individual per itinerary, trip, event, container, vessel, port,
    carrier and distinct timestamp, role edges for the design's structure,
    direct ``hasNextEvent`` chains per sequence, and the transshipment
    bindings as hasLoadingVesselEvent / hasDischargingVesselEvent edges. A
    trip holds no attributes: it points at its vessel (``hasMO``) and at its
    two vessel events (``hasDepartureEvent``, ``hasArrivalEvent``), whose
    ``hasLocation`` and ``hasTimestamp`` edges give its ports and dates.
    A port, timestamp, vessel, container or carrier is declared at its first
    reference (itineraries before vessel events), so the first-seen port name
    and vessel label win, and its node id is computed once. Type-check
    violations abort with the offending triple, as do trips and bindings that
    name an undeclared vessel or event.
    """
    graph = KnowledgeGraph()
    individuals = graph.individuals
    ports: Dict[Location, str] = {}
    stamps: Dict[date, str] = {}
    vessels: Dict[str, str] = {}  # vessel name as referenced -> node id
    containers: Dict[str, str] = {}
    events: Dict[str, str] = {}  # container event id -> node id

    def port(location: Location) -> str:
        node = ports.get(location)
        if node is None:
            # locations spelt differently may share a key: the first is kept
            node = ports[location] = port_node(location)
            if node not in individuals:
                graph.add_individual(node, "Port", name=location.name, country=location.country)
        return node

    def stamp(d: date) -> str:
        node = stamps.get(d)
        if node is None:
            node = stamps[d] = timestamp_node(d)
            graph.add_individual(node, "Timestamp", value=timestamp_literal(d))
        return node

    def vessel(name: str) -> str:
        node = vessels.get(name)
        if node is None:
            node = vessels[name] = vessel_node(vessel_key(name))
            if node not in individuals:
                graph.add_individual(node, "Vessel", label=name)
        return node

    for it in itineraries:
        ci = itinerary_node(it.itinerary_id)
        graph.add_individual(
            ci, "ContainerItinerary", label=it.itinerary_id, completeness=it.completeness.value
        )
        mo = containers.get(it.container_id)
        if mo is None:
            mo = containers[it.container_id] = container_node(it.container_id)
            carrier = carrier_node(it.container_id)
            if carrier not in individuals:
                graph.add_individual(carrier, "Carrier", label=it.container_id[:3])
            graph.add_individual(mo, "Container", label=it.container_id)
            graph.add_edge(mo, "belongsTo", carrier)
        graph.add_edge(ci, "hasMO", mo)
        graph.add_edge(ci, "hasCISourcePort", port(it.source_port))
        if it.destination_port is not None:
            graph.add_edge(ci, "hasCIDestinationPort", port(it.destination_port))
        graph.add_edge(ci, "hasEndTime", stamp(it.end_time))
        previous: Optional[str] = None
        for e in it.events:
            leaf = e.ref_event.leaf
            top = _TOP_CLASS_CONCEPT[e.ref_event.top_class]
            concept = graph.taxonomy.resolve(leaf)
            if concept is None:
                graph.add_concept(leaf, top)
            elif not graph.taxonomy.is_subclass(concept, top):
                raise GraphTypeError(
                    "event %s: reference event %s resolves to concept %s, outside its"
                    " top class %s" % (e.event_id, leaf, concept, top)
                )
            ce = events[e.event_id] = container_event_node(e.event_id)
            graph.add_individual(ce, leaf, label=e.event_id)
            graph.add_edge(ci, "hasContainerEvent", ce)
            graph.add_edge(ce, "hasMO", mo)
            graph.add_edge(ce, "hasLocation", port(e.location))
            graph.add_edge(ce, "hasTimestamp", stamp(e.time))
            if e.loading_vessel:
                graph.add_edge(ce, "hasLoadingVessel", vessel(e.loading_vessel))
            if e.discharging_vessel:
                graph.add_edge(ce, "hasDischargingVessel", vessel(e.discharging_vessel))
            if previous is not None:
                graph.add_edge(previous, "hasNextEvent", ce)
            previous = ce

    order = {VesselEventKind.ARRIVAL: 0, VesselEventKind.DEPARTURE: 1}
    by_vessel: Dict[str, List[Tuple[VesselEvent, str, str]]] = {}
    for ve in vessel_events:
        by_vessel.setdefault(ve.vessel_id, []).append((ve, port(ve.port), stamp(ve.time)))
    for vessel_id in sorted(by_vessel):
        mo = vessel_node(vessel_id)
        if mo not in individuals:
            graph.add_individual(mo, "Vessel", label=vessel_id)
        chain = by_vessel[vessel_id]
        chain.sort(key=lambda c: (c[0].time, order[c[0].kind], c[0].event_id))
        previous = None
        for ve, location, time in chain:
            graph.add_individual(ve.event_id, ve.kind.value)
            graph.add_edge(ve.event_id, "hasMO", mo)
            graph.add_edge(ve.event_id, "hasLocation", location)
            graph.add_edge(ve.event_id, "hasTimestamp", time)
            if previous is not None:
                graph.add_edge(previous, "hasNextEvent", ve.event_id)
            previous = ve.event_id

    for trip in trips:
        graph.add_individual(trip.trip_id, "VesselTrip")
        graph.add_edge(trip.trip_id, "hasMO", vessel_node(trip.vessel_id))
        graph.add_edge(trip.trip_id, "hasDepartureEvent", trip.departure.event_id)
        graph.add_edge(trip.trip_id, "hasArrivalEvent", trip.arrival.event_id)

    binding_role = {
        BindingKind.LOAD_TO_DEPARTURE: "hasLoadingVesselEvent",
        BindingKind.DISCHARGE_FROM_ARRIVAL: "hasDischargingVesselEvent",
    }
    for b in bindings:
        # an event never declared keeps its would-be id, so add_edge rejects it
        ce = events.get(b.container_event_id) or container_event_node(b.container_event_id)
        graph.add_edge(ce, binding_role[b.kind], b.vessel_event_id)

    graph.seal()
    return graph
