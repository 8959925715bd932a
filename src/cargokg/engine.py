"""Conjunctive query evaluation over a sealed knowledge graph.

Semantics
---------
An answer is an assignment of graph individuals (or concept names, for class
variables) to variables under which every atom holds:

* ``TypeAtom(x, C)`` holds when x's concept is subsumed by C; with a class
  variable it enumerates every (individual, ancestor-or-self concept) pair;
* ``SubclassAtom(c, D)`` holds when c is a concept subsumed by D
  (reflexively);
* ``RoleAtom(s, r, o)`` holds over direct edges, except that transitive
  roles match over the transitive closure of their direct edges.

Substring binds compute derived literals, date filters compare them with
calendar-date ordering; a filter over a value that does not parse as a date
excludes the row and bumps a diagnostics counter. DISTINCT applies to the
projected tuples, last.

Planning
--------
Atoms are reordered greedily: nominal-anchored atoms first, then
taxonomy-bounded atoms (subclass atoms, type atoms with a fixed concept),
then role atoms sharing an already-bound variable; unconnected atoms (cross
products) only when nothing else remains. The plan never changes the result,
only the join order.

Evaluation
----------
Each call compiles its plan once into steps that map a list of rows to a
list of rows. Compiling knows which terms of an atom are constants, which
earlier steps bound and which the atom binds, so every atom becomes one step
of a single access mode (check, forward, backward or enumerate) with its
role resolved and its adjacency lookup or transitive-closure memo at hand.
Each bind and date filter is a step placed right after the step that binds
its inputs (binds, then filters, until none is ready). Within a pass a row
is a tuple indexed by slot: the query's individual constants, the
parameters, then each variable in the order it is bound. ``evaluate``
projects straight from the tuples; ``evaluate_rows`` turns them into dicts.

Parameters
----------
``evaluate_rows`` takes bindings: rows that fix some variables (the
parameters) to individuals before any atom runs. The query is planned and
compiled once, with the parameters counted as nominals, and its steps then
run one pass per binding; a parameter behaves exactly like a nominal
constant with its bound value in that place. This is how one template runs
over many anchor ports.
"""

import operator
from datetime import date
from itertools import chain
from typing import AbstractSet, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostics, record
from .graph import GraphError, KnowledgeGraph, Role, SealedGraphError
from .queries import (
    Atom,
    Const,
    DateCompare,
    PatternQuery,
    ResultSet,
    RoleAtom,
    SubclassAtom,
    SubstringBind,
    Term,
    TypeAtom,
    Var,
)


class UnresolvedNameError(GraphError):
    """A concept, role or individual name in the query is unknown."""


Row = Dict[str, str]


def _resolve_concept(graph: KnowledgeGraph, term: Const) -> str:
    resolved = graph.taxonomy.resolve(term.name)
    if resolved is None:
        raise UnresolvedNameError("unknown concept name %r" % term.name)
    return resolved


def _resolve_individual(graph: KnowledgeGraph, term: Const) -> str:
    if term.name in graph.individuals:
        return term.name
    raise UnresolvedNameError("unknown individual %r" % term.name)


def resolve_names(query: PatternQuery, graph: KnowledgeGraph) -> List[Atom]:
    """Resolve every Const in the query against the graph schema.

    Returns atoms with canonical concept names, canonical role names and
    verified individual ids. Raises UnresolvedNameError otherwise.
    """
    resolved: List[Atom] = []
    for atom in query.atoms:
        if isinstance(atom, TypeAtom):
            subject = (
                Const(_resolve_individual(graph, atom.subject))
                if isinstance(atom.subject, Const)
                else atom.subject
            )
            concept = (
                Const(_resolve_concept(graph, atom.concept))
                if isinstance(atom.concept, Const)
                else atom.concept
            )
            resolved.append(TypeAtom(subject, concept))
        elif isinstance(atom, SubclassAtom):
            child = (
                Const(_resolve_concept(graph, atom.child))
                if isinstance(atom.child, Const)
                else atom.child
            )
            if not isinstance(atom.ancestor, Const):
                raise UnresolvedNameError(
                    "subclass ancestor must be a concept name, not a variable"
                )
            resolved.append(
                SubclassAtom(child, Const(_resolve_concept(graph, atom.ancestor)))
            )
        else:
            role = graph.resolve_role(atom.role)  # raises GraphError if unknown
            subject = (
                Const(_resolve_individual(graph, atom.subject))
                if isinstance(atom.subject, Const)
                else atom.subject
            )
            obj = (
                Const(_resolve_individual(graph, atom.object))
                if isinstance(atom.object, Const)
                else atom.object
            )
            resolved.append(RoleAtom(subject, role.name, obj))
    return resolved


# ---------------------------------------------------------------------------
# Planner


def _atom_vars(atom: Atom) -> List[str]:
    terms = (
        (atom.subject, atom.concept)
        if isinstance(atom, TypeAtom)
        else (atom.child, atom.ancestor)
        if isinstance(atom, SubclassAtom)
        else (atom.subject, atom.object)
    )
    return [t.name for t in terms if isinstance(t, Var)]


def _nominal(term, params: AbstractSet[str]) -> bool:
    """A constant, or a parameter: fixed before the first atom runs."""
    return isinstance(term, Const) or term.name in params


def _estimate(
    graph: KnowledgeGraph,
    atom: Atom,
    bound: set,
    params: AbstractSet[str],
    restricted: AbstractSet[str],
) -> Tuple[int, float]:
    """(tier, expected row multiplier) for the greedy planner.

    Tier 0: checks and nominal-anchored lookups; tier 1: taxonomy-bounded
    enumerations; tier 2: joins along a bound variable; tier 3: would be a
    cross product. Within a tier lower multipliers win, so row-killing atoms
    run before row-multiplying ones. A constant's lookup is sized exactly; a
    parameter's value is not known yet, so it is sized by the role's mean
    branching. A join into a ``restricted`` variable keeps only the members
    of its semi-join set (see ``_nominal_restrictor_specs``), so it is sized
    like a check, however far its role reaches; sized by branching, such a
    transitive join tied with plain joins and the plan flipped with the
    dataset's size.
    """
    vars_ = _atom_vars(atom)
    unbound = [v for v in vars_ if v not in bound]
    shares = any(v in bound for v in vars_)
    if isinstance(atom, RoleAtom):
        transitive = graph.resolve_role(atom.role).transitive
        factor = 8 if transitive else 1
        if not unbound:
            return 0, 1  # pure membership check
        out_branch, in_branch = graph.role_branching(atom.role)
        subject_fixed = isinstance(atom.subject, Const) or atom.subject.name in bound
        object_fixed = isinstance(atom.object, Const) or atom.object.name in bound
        if _nominal(atom.subject, params) and not object_fixed:
            if isinstance(atom.subject, Const):
                out_branch = len(graph.objects(atom.subject.name, atom.role))
            return 0, out_branch * factor
        if _nominal(atom.object, params) and not subject_fixed:
            if isinstance(atom.object, Const):
                in_branch = len(graph.subjects(atom.object.name, atom.role))
            return 0, in_branch * factor
        if subject_fixed:
            return 2, 1 if atom.object.name in restricted else out_branch * factor
        if object_fixed:
            return 2, 1 if atom.subject.name in restricted else in_branch * factor
        return 3, max(graph.edge_count(), 1) * factor
    if isinstance(atom, SubclassAtom):
        if _nominal(atom.child, params) or not unbound:
            return 0, 1
        if shares:
            return 2, 0.5  # filters bound class variables hard
        return 1, len(graph.taxonomy.descendants_or_self(atom.ancestor.name))
    # TypeAtom
    if not unbound:
        return 0, 1
    if _nominal(atom.subject, params):
        return 0, 4
    subject_bound = atom.subject.name in bound
    if isinstance(atom.concept, Const):
        if subject_bound:
            return 2, 0.9  # subsumption check, usually shrinks
        return 1, len(graph.instances_of(atom.concept.name))
    if subject_bound:
        return 2, 5  # enumerate ancestor classes
    if shares:
        return 2, 8
    return 3, max(len(graph.individuals), 1) * 4.0


def plan(
    query: PatternQuery, graph: KnowledgeGraph, params: AbstractSet[str] = frozenset()
) -> List[Atom]:
    """Greedy selectivity ordering of the query's resolved atoms.

    ``params`` are variables bound before the first atom (see
    ``evaluate_rows``); they anchor the plan like nominals do. Semantics-
    preserving: any order yields the same result set; this one starts from
    nominal-anchored atoms and grows the join along shared variables.
    """
    atoms = resolve_names(query, graph)
    # a shared parameter does not connect two atoms: joining through it
    # would be a cross product per binding
    free = [[v for v in _atom_vars(atom) if v not in params] for atom in atoms]
    restricted = frozenset(_nominal_restrictor_specs(graph, atoms, params))
    remaining = list(enumerate(atoms))
    order: List[Atom] = []
    joined: set = set()  # bound by the atoms placed so far
    while remaining:
        bound = joined | params

        def key(item):
            index, atom = item
            tier, size = _estimate(graph, atom, bound, params, restricted)
            vars_ = free[index]
            connected = (not joined) or any(v in joined for v in vars_) or not vars_
            return (0 if connected else 1, tier, size, index)

        remaining.sort(key=key)
        index, atom = remaining.pop(0)
        order.append(atom)
        joined.update(free[index])
    return order


# ---------------------------------------------------------------------------
# Compilation and evaluation

# One step of a compiled query: the rows of a pass after one atom, bind or
# filter. A row is a tuple indexed by slot (see ``_Program``).
Step = Callable[[List[tuple]], List[tuple]]

_COMPARE = {
    "<": operator.lt,
    ">": operator.gt,
    "<=": operator.le,
    ">=": operator.ge,
    "=": operator.eq,
}
_UNSEEN = object()


def _coerce_date(graph: KnowledgeGraph, value: str) -> Optional[date]:
    try:
        return date.fromisoformat(graph.literal_form(value))
    except ValueError:
        return None


def _once(build: Callable[[], List[tuple]]) -> Callable[[], List[tuple]]:
    """``build()`` on first use, then its result: an enumeration that no row
    reaches costs nothing."""
    built: List[List[tuple]] = []

    def get() -> List[tuple]:
        if not built:
            built.append(build())
        return built[0]

    return get


def _cross(extensions: Callable[[], List[tuple]]) -> Step:
    """Every row extended by every tuple of ``extensions()``."""

    def step(rows: List[tuple]) -> List[tuple]:
        found = extensions()
        return [row + extension for row in rows for extension in found]

    return step


def _expand(source: int, near, allowed: Callable[[], Optional[frozenset]]) -> Step:
    """Every row extended by each neighbour of its ``source`` slot that the
    pass's restrictor set allows; ``near(node, default)`` looks the
    neighbours up the way ``dict.get`` does."""

    def step(rows: List[tuple]) -> List[tuple]:
        keep = allowed()
        out: List[tuple] = []
        add = out.append
        for row in rows:
            for node in near(row[source], ()):
                if keep is None or node in keep:
                    add(row + (node,))
        return out

    return step


class _Program:
    """A planned query compiled against one graph into steps (see the module
    docstring), run once per binding.

    ``slots`` maps each variable to its slot, in slot order; the query's
    individual constants take the slots before the first variable. The
    transitive-closure memos, one per role and direction, serve every pass
    (closures do not depend on the binding); the semi-join restrictor sets
    are built lazily per pass.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        query: PatternQuery,
        atoms: Sequence[Atom],
        params: Sequence[str],
        diagnostics: Optional[Diagnostics],
    ):
        self.graph = graph
        self.diagnostics = diagnostics
        constants: List[str] = []
        for atom in atoms:
            if isinstance(atom, SubclassAtom):
                continue
            ends = (atom.subject,) if isinstance(atom, TypeAtom) else (atom.subject, atom.object)
            for term in ends:
                if isinstance(term, Const) and term.name not in constants:
                    constants.append(term.name)
        self._head = tuple(constants)
        self._constants = {name: slot for slot, name in enumerate(constants)}
        self.slots: Dict[str, int] = {}
        for name in params:
            self._new_slot(name)
        self._specs = _nominal_restrictor_specs(graph, atoms, frozenset(params))
        self._restrictors: Dict[str, frozenset] = {}
        self._row0: tuple = ()
        self._memos: Dict[Tuple[str, str], dict] = {}
        self._dates: Dict[str, Optional[date]] = {}
        self.steps: List[Step] = []
        binds, filters = list(query.binds), list(query.filters)
        for atom in atoms:
            self.steps.append(self._atom_step(atom))
            self._schedule(binds, filters)
        self._schedule(binds, filters)

    def run(self, values: tuple) -> List[tuple]:
        """One pass, from the row of the constants and the parameters'
        values."""
        self._row0 = self._head + values
        self._restrictors.clear()
        rows = [self._row0]
        for step in self.steps:
            rows = step(rows)
            if not rows:
                break
        return rows

    def as_dicts(self, rows: List[tuple]) -> List[Row]:
        names = list(self.slots)
        skip = len(self._head)
        return [dict(zip(names, row[skip:])) for row in rows]

    # -- slots ----------------------------------------------------------------

    def _new_slot(self, name: str) -> None:
        self.slots[name] = len(self._head) + len(self.slots)

    def _slot(self, term: Term) -> Optional[int]:
        """The slot a term is read from, None while it is unbound."""
        if isinstance(term, Const):
            return self._constants[term.name]
        return self.slots.get(term.name)

    def _schedule(self, binds: List[SubstringBind], filters: List[DateCompare]) -> None:
        """Append the binds, then the filters, whose inputs are bound, until
        none is ready: filters only ever shrink the rows, so early filters
        are safe and exactly what makes the date-filtered variants fast."""
        progressed = True
        while progressed:
            progressed = False
            for bind in list(binds):
                if bind.source in self.slots:
                    self.steps.append(self._bind_step(bind))
                    binds.remove(bind)
                    progressed = True
            for flt in list(filters):
                if flt.lhs in self.slots and flt.rhs in self.slots:
                    self.steps.append(self._filter_step(flt))
                    filters.remove(flt)
                    progressed = True

    # -- atoms ----------------------------------------------------------------

    def _atom_step(self, atom: Atom) -> Step:
        if isinstance(atom, RoleAtom):
            return self._role_step(atom)
        if isinstance(atom, TypeAtom):
            return self._type_step(atom)
        return self._subclass_step(atom)

    def _role_step(self, atom: RoleAtom) -> Step:
        graph = self.graph
        role = graph.resolve_role(atom.role)

        def lookup(direction: str):
            if role.transitive:
                return self._closure(role, direction)
            return graph.adjacency(role.name, direction).get

        subject, obj = self._slot(atom.subject), self._slot(atom.object)
        if subject is not None and obj is not None:
            forward = lookup("out")
            return lambda rows: [row for row in rows if row[obj] in forward(row[subject], ())]
        if subject is not None:
            step = _expand(subject, lookup("out"), self._restrictor(atom.object.name))
            self._new_slot(atom.object.name)
            return step
        if obj is not None:
            step = _expand(obj, lookup("in"), self._restrictor(atom.subject.name))
            self._new_slot(atom.subject.name)
            return step
        # both ends unbound: each source once, with everything it reaches
        sources, forward = graph.adjacency(role.name, "out"), lookup("out")
        same = atom.subject == atom.object

        def pairs() -> List[tuple]:
            found = []
            for source in sorted(sources):
                for reached in forward(source, ()):
                    if not same:
                        found.append((source, reached))
                    elif reached == source:
                        found.append((source,))
            return found

        self._new_slot(atom.subject.name)
        if not same:
            self._new_slot(atom.object.name)
        return _cross(_once(pairs))

    def _closure(self, role: Role, direction: str):
        """A ``dict.get``-shaped lookup of the nodes a transitive role reaches
        from a node ("out") or that reach it ("in"), through this call's memo:
        the only place closures are memoised."""
        memo = self._memos.setdefault((role.name, direction), {})
        graph = self.graph
        compute = (
            graph.transitive_successors if direction == "out" else graph.transitive_predecessors
        )
        name = role.name

        def reach(node: str, _default) -> Tuple[str, ...]:
            found = memo.get(node)
            if found is None:
                found = memo[node] = compute(node, name)
            return found

        return reach

    def _restrictor(self, var: str) -> Callable[[], Optional[frozenset]]:
        """The pass's semi-join set for ``var``, built on its first use in a
        pass; None when no nominal-anchored atom restricts ``var``."""
        specs = [
            (self.graph.adjacency(role, direction), self._slot(end))
            for role, end, direction in self._specs.get(var, ())
        ]
        if not specs:
            return lambda: None
        built = self._restrictors

        def allowed() -> frozenset:
            found = built.get(var)
            if found is None:
                for adjacency, end in specs:
                    members = frozenset(adjacency.get(self._row0[end], ()))
                    found = members if found is None else found & members
                built[var] = found
            return found

        return allowed

    def _type_step(self, atom: TypeAtom) -> Step:
        graph = self.graph
        individuals, taxonomy = graph.individuals, graph.taxonomy
        subject = self._slot(atom.subject)
        if isinstance(atom.concept, Const):
            if subject is None:
                self._new_slot(atom.subject.name)
                members = graph.instances_of(atom.concept.name)
                return _cross(_once(lambda: [(node,) for node in members]))
            concepts = frozenset(taxonomy.descendants_or_self(atom.concept.name))

            def check(rows: List[tuple]) -> List[tuple]:
                out = []
                for row in rows:
                    ind = individuals.get(row[subject])
                    if ind is not None and ind.concept in concepts:
                        out.append(row)
                return out

            return check
        concept = self._slot(atom.concept)
        if subject is not None and concept is not None:

            def holds(row: tuple) -> bool:
                ind = individuals.get(row[subject])
                resolved = taxonomy.resolve(row[concept])
                return (
                    ind is not None
                    and resolved is not None
                    and taxonomy.is_subclass(ind.concept, resolved)
                )

            return lambda rows: [row for row in rows if holds(row)]
        if subject is not None:
            self._new_slot(atom.concept.name)

            def ancestors(rows: List[tuple]) -> List[tuple]:
                out = []
                for row in rows:
                    ind = individuals.get(row[subject])
                    if ind is not None:
                        for ancestor in taxonomy.ancestors_or_self(ind.concept):
                            out.append(row + (ancestor,))
                return out

            return ancestors
        if concept is not None:
            self._new_slot(atom.subject.name)

            def instances(rows: List[tuple]) -> List[tuple]:
                out = []
                for row in rows:
                    resolved = taxonomy.resolve(row[concept])
                    if resolved is not None:
                        out.extend(row + (node,) for node in graph.instances_of(resolved))
                return out

            return instances
        same = atom.subject == atom.concept

        def pairs() -> List[tuple]:
            found = []
            for node in sorted(individuals):
                for ancestor in taxonomy.ancestors_or_self(individuals[node].concept):
                    if not same:
                        found.append((node, ancestor))
                    elif ancestor == node:
                        found.append((node,))
            return found

        self._new_slot(atom.subject.name)
        if not same:
            self._new_slot(atom.concept.name)
        return _cross(_once(pairs))

    def _subclass_step(self, atom: SubclassAtom) -> Step:
        taxonomy = self.graph.taxonomy
        members = taxonomy.descendants_or_self(atom.ancestor.name)
        if isinstance(atom.child, Const):
            holds = taxonomy.is_subclass(atom.child.name, atom.ancestor.name)
            return (lambda rows: rows) if holds else (lambda rows: [])
        child = self._slot(atom.child)
        if child is not None:
            concepts = frozenset(members)
            return lambda rows: [row for row in rows if taxonomy.resolve(row[child]) in concepts]
        self._new_slot(atom.child.name)
        found = [(concept,) for concept in sorted(members)]
        return _cross(lambda: found)

    # -- binds and filters ----------------------------------------------------

    def _bind_step(self, bind: SubstringBind) -> Step:
        source = self.slots[bind.source]
        start, end = bind.start - 1, bind.start - 1 + bind.length
        literal = self.graph.literal_form
        target = self.slots.get(bind.target)
        if target is None:
            self._new_slot(bind.target)
            return lambda rows: [row + (literal(row[source])[start:end],) for row in rows]
        return lambda rows: [
            row[:target] + (literal(row[source])[start:end],) + row[target + 1 :]
            for row in rows
        ]

    def _filter_step(self, flt: DateCompare) -> Step:
        lhs, rhs = self.slots[flt.lhs], self.slots[flt.rhs]
        compare = _COMPARE[flt.op]
        as_date = self._as_date
        diagnostics = self.diagnostics

        def step(rows: List[tuple]) -> List[tuple]:
            out = []
            for row in rows:
                left, right = as_date(row[lhs]), as_date(row[rhs])
                if left is None or right is None:
                    record(
                        diagnostics,
                        "filter_nondate",
                        "row excluded: %s or %s is not a date" % (row[lhs], row[rhs]),
                    )
                elif compare(left, right):
                    out.append(row)
            return out

        return step

    def _as_date(self, value: str) -> Optional[date]:
        found = self._dates.get(value, _UNSEEN)
        if found is _UNSEEN:
            found = self._dates[value] = _coerce_date(self.graph, value)
        return found


def _nominal_restrictor_specs(
    graph: KnowledgeGraph, atoms: Sequence[Atom], params: AbstractSet[str]
) -> Dict[str, List[Tuple[str, Term, str]]]:
    """Semi-join push-down: a variable that must also satisfy a
    nominal-anchored non-transitive role atom can only ever bind inside that
    atom's adjacency, so expansions binding it are filtered against the set
    up front. The fixed end is a constant or a parameter; each spec is
    (role, fixed end, adjacency direction from it). The anchored atom itself
    still runs (then trivially), results are unchanged, but row blow-up
    between the two atoms disappears."""
    specs: Dict[str, List[Tuple[str, Term, str]]] = {}
    for atom in atoms:
        if not isinstance(atom, RoleAtom):
            continue
        if graph.resolve_role(atom.role).transitive:
            continue
        subject_fixed = _nominal(atom.subject, params)
        object_fixed = _nominal(atom.object, params)
        if subject_fixed and not object_fixed:
            specs.setdefault(atom.object.name, []).append((atom.role, atom.subject, "out"))
        elif object_fixed and not subject_fixed:
            specs.setdefault(atom.subject.name, []).append((atom.role, atom.object, "in"))
    return specs


def _run_pipeline(
    query: PatternQuery,
    graph: KnowledgeGraph,
    diagnostics: Optional[Diagnostics],
    atom_order: Optional[Sequence[Atom]] = None,
    bindings: Optional[Iterable[Row]] = None,
) -> Tuple[Optional[_Program], List[tuple]]:
    """Plan and compile once for the variables the first binding fixes,
    then run one pass per binding, in order, taking the bindings lazily.
    Returns the program (None without bindings) and its tuple rows."""
    if not graph.sealed:
        raise SealedGraphError("queries run against sealed graphs only")
    passes = iter([{}] if bindings is None else bindings)
    first = next(passes, None)
    if first is None:
        return None, []
    params = tuple(first)
    fixed = frozenset(params)
    atoms = list(atom_order) if atom_order is not None else plan(query, graph, fixed)
    program = _Program(graph, query, atoms, params, diagnostics)
    rows: List[tuple] = []
    for binding in chain([first], passes):
        if binding.keys() != fixed:
            raise ValueError(
                "every binding must fix the same variables: %s, not %s"
                % (sorted(fixed), sorted(binding))
            )
        values = tuple(binding[name] for name in params)
        for node in values:
            if node not in graph.individuals:
                raise UnresolvedNameError("unknown individual %r" % node)
        rows.extend(program.run(values))
    return program, rows


def evaluate(
    query: PatternQuery,
    graph: KnowledgeGraph,
    diagnostics: Optional[Diagnostics] = None,
    atom_order: Optional[Sequence[Atom]] = None,
) -> ResultSet:
    """Answer the query over a sealed graph.

    ``atom_order`` overrides the planner (it must be a reordering of the
    query's resolved atoms); results are identical for any legal order.
    """
    program, rows = _run_pipeline(query, graph, diagnostics, atom_order)
    projected: List[Tuple[str, ...]] = []
    if rows:
        pick = operator.itemgetter(*(program.slots[name] for name in query.projection))
        if len(query.projection) == 1:
            projected = [(pick(row),) for row in rows]
        else:
            projected = [pick(row) for row in rows]
    if query.distinct:
        projected = list(dict.fromkeys(projected))
    projected.sort()
    return ResultSet(list(query.projection), projected)


def evaluate_rows(
    query: PatternQuery,
    graph: KnowledgeGraph,
    diagnostics: Optional[Diagnostics] = None,
    bindings: Optional[Iterable[Row]] = None,
) -> List[Row]:
    """Full variable bindings (no projection); used for evidence extraction.

    ``bindings`` (default: one empty binding) are rows that fix the same
    variables to individuals, e.g. ``{"port": node}``; the result is the
    concatenation, in binding order, of each binding's answers, every row
    carrying the binding's values. One binding gives the same rows as
    substituting its values for the variables as nominals.
    """
    program, rows = _run_pipeline(query, graph, diagnostics, bindings=bindings)
    return program.as_dicts(rows) if rows else []
