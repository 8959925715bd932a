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

An alias role is query sugar. ``resolve_names`` rewrites each alias atom into
its base role atom, followed by a type atom for each end the alias narrows,
and drops duplicate atoms: ``?v st:hasNextVesselEvent ?v1`` becomes
``?v st:hasNextEvent ?v1 . ?v a st:VesselEvent . ?v1 a st:VesselEvent``.
Everything after it (planner, compiler, semi-join restrictors, closure memos)
sees stored roles only.

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
only the join order, and reads only the query's shape and the graph's
statistics: a constant and a parameter are sized alike (see ``_estimate``).
A placement re-keys only the atoms that share a variable with the atom
placed, since no other atom's key can change (see ``plan_indices``).

Evaluation
----------
Each call compiles its plan once into steps that map a list of rows to a
list of rows. Every atom is one relation between a left and a right end
(``queries.atom_ends``), and one builder turns it into one step of four
access modes: check when both ends are bound, expand forward from a bound
left end, expand backward from a bound right end, enumerate when neither
is. The relation gives the lookup each way: a role's adjacency or its
transitive-closure memo; a node's ancestor concepts and a concept's
instances; a concept's ancestors and the constant ancestor's descendants.
Row values are matched as they are, never normalised onto a concept name.
Each bind and date filter is a step placed right after the step that binds
its inputs (binds, then filters, until none is ready). Within a pass a row
is a tuple indexed by slot: the query's constants (individuals and concepts
alike, so a constant end is a bound end), the parameters, then each
variable in the order it is bound. ``evaluate`` projects straight from the
tuples; ``evaluate_rows`` turns them into dicts.

Parameters
----------
``evaluate_rows`` takes bindings: rows that fix some variables (the
parameters) to individuals before any atom runs. The query is planned and
compiled once, with the parameters counted as nominals, and its steps then
run one pass per binding; a parameter behaves exactly like a nominal
constant with its bound value in that place, in the plan too. This is how
one template runs over many anchor ports.
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
    atom_ends,
)


class UnresolvedNameError(GraphError):
    """A concept, role or individual name in the query is unknown."""


Row = Dict[str, str]


def _existing(graph: KnowledgeGraph, node: str) -> str:
    """A fixed individual, a constant or a binding's value, exists verbatim."""
    if node not in graph.individuals:
        raise UnresolvedNameError("unknown individual %r" % node)
    return node


def _individual(graph: KnowledgeGraph, term: Term) -> Term:
    """A constant individual must exist; a variable stays."""
    return Const(_existing(graph, term.name)) if isinstance(term, Const) else term


def _concept(graph: KnowledgeGraph, term: Term) -> Term:
    """A constant concept becomes its canonical name; a variable stays."""
    if isinstance(term, Var):
        return term
    resolved = graph.taxonomy.resolve(term.name)
    if resolved is None:
        raise UnresolvedNameError("unknown concept name %r" % term.name)
    return Const(resolved)


def resolve_names(query: PatternQuery, graph: KnowledgeGraph) -> List[Atom]:
    """Resolve every Const in the query against the graph schema.

    Returns atoms with canonical concept names, stored role names and
    verified individual ids, alias roles expanded (see the module docstring)
    and duplicate atoms dropped. Raises UnresolvedNameError otherwise.
    """
    resolved: List[Atom] = []
    for atom in query.atoms:
        if isinstance(atom, TypeAtom):
            resolved.append(
                TypeAtom(_individual(graph, atom.subject), _concept(graph, atom.concept))
            )
        elif isinstance(atom, SubclassAtom):
            child = _concept(graph, atom.child)
            if not isinstance(atom.ancestor, Const):
                raise UnresolvedNameError(
                    "subclass ancestor must be a concept name, not a variable"
                )
            resolved.append(SubclassAtom(child, _concept(graph, atom.ancestor)))
        else:
            role = graph.resolve_role(atom.role)  # raises GraphError if unknown
            subject = _individual(graph, atom.subject)
            obj = _individual(graph, atom.object)
            base = graph.base_role(role)
            resolved.append(RoleAtom(subject, base.name, obj))
            for end, concept, stored in (
                (subject, role.domain, base.domain),
                (obj, role.range, base.range),
            ):
                if not graph.is_subclass(stored, concept):
                    resolved.append(TypeAtom(end, Const(concept)))
    return list(dict.fromkeys(resolved))


# ---------------------------------------------------------------------------
# Planner


def _atom_vars(atom: Atom) -> List[str]:
    return [t.name for t in atom_ends(atom) if isinstance(t, Var)]


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
    run before row-multiplying ones. A lookup from a nominal end, a constant
    or a parameter alike, is sized by the role's mean branching, so the
    estimate reads the query's shape and the graph's statistics only. A join
    into a ``restricted`` variable keeps only the members of its semi-join
    set (see ``_nominal_restrictor_specs``), so it is sized like a check,
    however far its role reaches; sized by branching, such a transitive join
    tied with plain joins and the plan flipped with the dataset's size.
    """
    vars_ = _atom_vars(atom)
    unbound = [v for v in vars_ if v not in bound]
    if isinstance(atom, RoleAtom):
        transitive = graph.resolve_role(atom.role).transitive
        factor = 8 if transitive else 1
        if not unbound:
            return 0, 1  # pure membership check
        out_branch, in_branch = graph.role_branching(atom.role)
        subject_fixed = isinstance(atom.subject, Const) or atom.subject.name in bound
        object_fixed = isinstance(atom.object, Const) or atom.object.name in bound
        if _nominal(atom.subject, params) and not object_fixed:
            return 0, out_branch * factor
        if _nominal(atom.object, params) and not subject_fixed:
            return 0, in_branch * factor
        if subject_fixed:
            return 2, 1 if atom.object.name in restricted else out_branch * factor
        if object_fixed:
            return 2, 1 if atom.subject.name in restricted else in_branch * factor
        return 3, max(graph.edge_count(), 1) * factor
    if isinstance(atom, SubclassAtom):
        if _nominal(atom.child, params) or not unbound:
            return 0, 1
        return 1, len(graph.taxonomy.descendants_or_self(atom.ancestor.name))
    # TypeAtom
    if not unbound:
        return 0, 1
    if _nominal(atom.subject, params):
        return 0, 4
    if isinstance(atom.concept, Const):
        return 1, len(graph.instances_of(atom.concept.name))
    if atom.subject.name in bound:
        return 2, 5  # enumerate ancestor classes
    if atom.concept.name in bound:
        return 2, 8
    return 3, max(len(graph.individuals), 1) * 4.0


def plan(
    query: PatternQuery, graph: KnowledgeGraph, params: AbstractSet[str] = frozenset()
) -> List[Atom]:
    """The query's resolved atoms in the order ``plan_indices`` gives them.

    ``params`` are variables bound before the first atom (see
    ``evaluate_rows``). A caller that runs one query shape at many anchors
    plans it once by binding the anchor as a parameter.
    """
    if not graph.sealed:
        raise SealedGraphError("queries are planned against sealed graphs only")
    atoms = resolve_names(query, graph)
    return [atoms[i] for i in plan_indices(atoms, graph, params)]


def plan_indices(
    atoms: Sequence[Atom], graph: KnowledgeGraph, params: AbstractSet[str] = frozenset()
) -> List[int]:
    """Greedy selectivity ordering of resolved atoms, as their indices.

    ``params`` anchor the plan and are sized like constants, so renaming a
    constant to a parameter keeps the plan. Semantics-preserving: any order
    yields the same result set; this one starts from nominal-anchored atoms
    and grows the join along shared variables.

    An atom's key depends only on which of its own variables are bound, and
    on whether anything is bound yet. So after the first placement, only the
    atoms that share a variable with the one just placed are re-keyed, and
    an estimate is computed once per atom and state.
    """
    # a shared parameter does not connect two atoms: joining through it
    # would be a cross product per binding
    free = [[v for v in _atom_vars(atom) if v not in params] for atom in atoms]
    restricted = frozenset(_nominal_restrictor_specs(graph, atoms, params))
    users: Dict[str, List[int]] = {}  # variable -> atoms it is free in
    for index, vars_ in enumerate(free):
        for v in vars_:
            users.setdefault(v, []).append(index)
    joined: set = set()  # bound by the atoms placed so far
    estimates: Dict[Tuple[int, Tuple[bool, ...]], Tuple[int, float]] = {}

    def key(index: int) -> tuple:
        vars_ = free[index]
        state = (index, tuple(v in joined for v in vars_))
        estimate = estimates.get(state)
        if estimate is None:
            estimate = estimates[state] = _estimate(
                graph, atoms[index], joined | params, params, restricted
            )
        tier, size = estimate
        connected = (not joined) or any(v in joined for v in vars_) or not vars_
        return (0 if connected else 1, tier, size, index)

    keys = {index: key(index) for index in range(len(atoms))}
    order: List[int] = []
    while keys:
        index = min(keys, key=keys.__getitem__)
        del keys[index]
        order.append(index)
        new = [v for v in free[index] if v not in joined]
        stale = keys if not joined else {i for v in new for i in users[v] if i in keys}
        joined.update(new)
        for i in list(stale):
            keys[i] = key(i)
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
    constants, individuals and concepts alike, take the slots before the
    first variable, so a constant end is a bound end. The
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
        ends = (term for atom in atoms for term in atom_ends(atom))
        self._head = tuple(dict.fromkeys(t.name for t in ends if isinstance(t, Const)))
        self._constants = {name: slot for slot, name in enumerate(self._head)}
        # SPARQL forbids a BIND into a variable already in scope, in any order
        scope = set(params).union(*map(_atom_vars, atoms))
        for bind in query.binds:
            if bind.target in scope:
                raise ValueError("bind target ?%s is already bound" % bind.target)
            scope.add(bind.target)
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
        """The atom as one relation between its two ends, in the access mode
        the bound slots give: check, expand forward from the left end,
        expand backward from the right end, or enumerate."""
        left_term, right_term = atom_ends(atom)
        left, right = self._slot(left_term), self._slot(right_term)
        sources, lookup = self._relation(atom)
        if left is not None and right is not None:
            if isinstance(atom, TypeAtom):  # on every row of a join: inline, no lookup call
                individuals, ancestors = self.graph.individuals, self.graph.taxonomy.ancestor_map()
                return lambda rows: [
                    row
                    for row in rows
                    if (concept := individuals.get(row[left])) is not None
                    and row[right] in ancestors[concept]
                ]
            forward = lookup("out")
            return lambda rows: [row for row in rows if row[right] in forward(row[left], ())]
        if left is not None:
            step = _expand(left, lookup("out"), self._restrictor(right_term.name))
            self._new_slot(right_term.name)
            return step
        if right is not None:
            step = _expand(right, lookup("in"), self._restrictor(left_term.name))
            self._new_slot(left_term.name)
            return step
        # both ends unbound: each source once, with everything it reaches
        forward = lookup("out")
        same = left_term == right_term

        def pairs() -> List[tuple]:
            found = []
            for source in sorted(sources):
                for reached in forward(source, ()):
                    if not same:
                        found.append((source, reached))
                    elif reached == source:
                        found.append((source,))
            return found

        self._new_slot(left_term.name)
        if not same:
            self._new_slot(right_term.name)
        return _cross(_once(pairs))

    def _relation(self, atom: Atom) -> Tuple[Iterable[str], Callable[[str], Callable]]:
        """(the left values to enumerate from, ``lookup``): ``lookup("out")``
        maps a left value to its right values and ``lookup("in")`` a right
        value to its left values, like ``dict.get``. Values match as they
        are: an id that normalises onto a concept name is not that concept."""
        graph = self.graph
        taxonomy = graph.taxonomy
        ancestors = taxonomy.ancestor_map()
        if isinstance(atom, RoleAtom):
            role = graph.resolve_role(atom.role)

            def lookup(direction: str):
                if role.transitive:
                    return self._closure(role, direction)
                return graph.adjacency(role.name, direction).get

            return graph.adjacency(role.name, "out"), lookup
        if isinstance(atom, SubclassAtom):
            # the ancestor is a concept constant (see resolve_names)
            name = atom.ancestor.name
            below = {name: sorted(taxonomy.descendants_or_self(name))}
            return ancestors, {"out": ancestors.get, "in": below.get}.__getitem__
        individuals = graph.individuals

        def concepts(node: str, default):
            concept = individuals.get(node)
            return default if concept is None else ancestors[concept]

        def instances(concept: str, default):
            return graph.instances_of(concept) if concept in ancestors else default

        return individuals, {"out": concepts, "in": instances}.__getitem__

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

    # -- binds and filters ----------------------------------------------------

    def _bind_step(self, bind: SubstringBind) -> Step:
        source = self.slots[bind.source]
        start, end = bind.start - 1, bind.start - 1 + bind.length
        literal = self.graph.literal_form
        self._new_slot(bind.target)
        return lambda rows: [row + (literal(row[source])[start:end],) for row in rows]

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
        rows.extend(program.run(tuple(_existing(graph, binding[name]) for name in params)))
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
