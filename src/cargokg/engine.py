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
only the join order, and binds/filters run as soon as their inputs are
bound.

Parameters
----------
``evaluate_rows`` takes bindings: rows that fix some variables (the
parameters) to individuals before any atom runs. The query is planned once,
with the parameters counted as nominals, and then runs one pipeline pass per
binding; a parameter behaves exactly like a nominal constant with its bound
value in that place. This is how one template runs over many anchor ports.
"""

from datetime import date
from itertools import chain
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .diagnostics import Diagnostics, record
from .graph import GraphError, KnowledgeGraph, SealedGraphError
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
    graph: KnowledgeGraph, atom: Atom, bound: set, params: AbstractSet[str]
) -> Tuple[int, float]:
    """(tier, expected row multiplier) for the greedy planner.

    Tier 0: checks and nominal-anchored lookups; tier 1: taxonomy-bounded
    enumerations; tier 2: joins along a bound variable; tier 3: would be a
    cross product. Within a tier lower multipliers win, so row-killing atoms
    run before row-multiplying ones. A constant's lookup is sized exactly; a
    parameter's value is not known yet, so it is sized by the role's mean
    branching.
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
            return 2, out_branch * factor
        if object_fixed:
            return 2, in_branch * factor
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
    remaining = list(enumerate(atoms))
    order: List[Atom] = []
    joined: set = set()  # bound by the atoms placed so far
    while remaining:
        bound = joined | params

        def key(item):
            index, atom = item
            tier, size = _estimate(graph, atom, bound, params)
            vars_ = free[index]
            connected = (not joined) or any(v in joined for v in vars_) or not vars_
            return (0 if connected else 1, tier, size, index)

        remaining.sort(key=key)
        index, atom = remaining.pop(0)
        order.append(atom)
        joined.update(free[index])
    return order


# ---------------------------------------------------------------------------
# Evaluation


def _literal(graph: KnowledgeGraph, value: str) -> str:
    return graph.literal_form(value)


def _coerce_date(graph: KnowledgeGraph, value: str) -> Optional[date]:
    try:
        return date.fromisoformat(_literal(graph, value))
    except ValueError:
        return None


class _Pipeline:
    """A planned query's join pipeline, run once per binding.

    The transitive-closure memo serves every pass (closures do not depend on
    the binding); the semi-join restrictor sets are rebuilt per pass.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        query: PatternQuery,
        atoms: List[Atom],
        params: AbstractSet[str],
        diagnostics: Optional[Diagnostics],
    ):
        self.graph = graph
        self.query = query
        self.atoms = atoms
        self.diagnostics = diagnostics
        self._restrictor_specs = _nominal_restrictor_specs(graph, atoms, params)
        self._restrictors: Dict[str, Optional[frozenset]] = {}
        self._binding: Row = {}
        self.memo_succ, self.memo_pred = {}, {}

    def _allowed(self, term) -> Optional[frozenset]:
        """Materialised lazily: passes whose joins die early never pay for
        building the sets."""
        if not isinstance(term, Var):
            return None
        name = term.name
        if name in self._restrictors:
            return self._restrictors[name]
        specs = self._restrictor_specs.get(name)
        allowed: Optional[frozenset] = None
        if specs:
            for role, end, direction in specs:
                node = end.name if isinstance(end, Const) else self._binding[end.name]
                members = (
                    self.graph.objects(node, role)
                    if direction == "objects"
                    else self.graph.subjects(node, role)
                )
                allowed = (
                    frozenset(members) if allowed is None else allowed & frozenset(members)
                )
        self._restrictors[name] = allowed
        return allowed

    def run(self, binding: Row) -> List[Row]:
        """One pass, starting from the binding's row. Binds and filters run
        as soon as their inputs are bound (filters only ever shrink the row
        set, so early filters are safe and exactly what makes the
        date-filtered variants fast)."""
        self._binding = binding
        self._restrictors = {}
        rows: List[Row] = [dict(binding)]
        pending_binds = list(self.query.binds)
        pending_filters = list(self.query.filters)

        def flush(rows: List[Row]) -> List[Row]:
            progressed = True
            while progressed:
                progressed = False
                for bind in list(pending_binds):
                    if not rows or bind.source in rows[0]:
                        if rows:
                            rows = self.apply_bind(rows, bind)
                        pending_binds.remove(bind)
                        progressed = True
                for flt in list(pending_filters):
                    if not rows or (flt.lhs in rows[0] and flt.rhs in rows[0]):
                        if rows:
                            rows = self.apply_filter(rows, flt)
                        pending_filters.remove(flt)
                        progressed = True
            return rows

        for atom in self.atoms:
            rows = self.extend(rows, atom)
            if not rows:
                return []
            rows = flush(rows)
        return flush(rows)

    # -- atom matching ------------------------------------------------------

    def extend(self, rows: List[Row], atom: Atom) -> List[Row]:
        out: List[Row] = []
        for row in rows:
            out.extend(self.match(row, atom))
        return out

    def match(self, row: Row, atom: Atom) -> Iterator[Row]:
        if isinstance(atom, TypeAtom):
            yield from self.match_type(row, atom)
        elif isinstance(atom, SubclassAtom):
            yield from self.match_subclass(row, atom)
        else:
            yield from self.match_role(row, atom)

    def _value(self, row: Row, term) -> Optional[str]:
        if isinstance(term, Const):
            return term.name
        return row.get(term.name)

    def match_type(self, row: Row, atom: TypeAtom) -> Iterator[Row]:
        graph = self.graph
        subject = self._value(row, atom.subject)
        concept = self._value(row, atom.concept)
        if subject is not None and subject not in graph.individuals:
            return
        if subject is not None and concept is not None:
            if graph.taxonomy.resolve(concept) and graph.is_subclass(
                graph.concept_of(subject), concept
            ):
                yield row
            return
        if subject is not None:
            for ancestor in graph.taxonomy.ancestors_or_self(
                graph.concept_of(subject)
            ):
                yield {**row, atom.concept.name: ancestor}
            return
        if concept is not None:
            if graph.taxonomy.resolve(concept) is None:
                return
            for node in graph.instances_of(concept):
                yield {**row, atom.subject.name: node}
            return
        for node in sorted(graph.individuals):
            for ancestor in graph.taxonomy.ancestors_or_self(graph.concept_of(node)):
                yield {**row, atom.subject.name: node, atom.concept.name: ancestor}

    def match_subclass(self, row: Row, atom: SubclassAtom) -> Iterator[Row]:
        graph = self.graph
        child = self._value(row, atom.child)
        ancestor = atom.ancestor.name
        if child is not None:
            if graph.taxonomy.resolve(child) is None:
                return  # bound to something that is not a concept
            if graph.is_subclass(child, ancestor):
                yield row
            return
        for concept in sorted(graph.taxonomy.descendants_or_self(ancestor)):
            yield {**row, atom.child.name: concept}

    def match_role(self, row: Row, atom: RoleAtom) -> Iterator[Row]:
        graph = self.graph
        role = graph.resolve_role(atom.role)
        subject = self._value(row, atom.subject)
        obj = self._value(row, atom.object)
        if subject is not None and subject not in graph.individuals:
            return
        if obj is not None and obj not in graph.individuals:
            return
        if role.transitive:
            if subject is not None and obj is not None:
                if obj in graph.transitive_successors(subject, role.name, self.memo_succ):
                    yield row
            elif subject is not None:
                allowed = self._allowed(atom.object)
                for reached in graph.transitive_successors(
                    subject, role.name, self.memo_succ
                ):
                    if allowed is not None and reached not in allowed:
                        continue
                    yield {**row, atom.object.name: reached}
            elif obj is not None:
                allowed = self._allowed(atom.subject)
                for source in graph.transitive_predecessors(
                    obj, role.name, self.memo_pred
                ):
                    if allowed is not None and source not in allowed:
                        continue
                    yield {**row, atom.subject.name: source}
            else:
                for source, _ in graph.role_pairs(role.name):
                    for reached in graph.transitive_successors(
                        source, role.name, self.memo_succ
                    ):
                        yield {
                            **row,
                            atom.subject.name: source,
                            atom.object.name: reached,
                        }
            return
        if subject is not None and obj is not None:
            if obj in graph.objects(subject, role.name):
                yield row
        elif subject is not None:
            allowed = self._allowed(atom.object)
            for reached in graph.objects(subject, role.name):
                if allowed is not None and reached not in allowed:
                    continue
                yield {**row, atom.object.name: reached}
        elif obj is not None:
            allowed = self._allowed(atom.subject)
            for source in graph.subjects(obj, role.name):
                if allowed is not None and source not in allowed:
                    continue
                yield {**row, atom.subject.name: source}
        else:
            for source, reached in graph.role_pairs(role.name):
                yield {**row, atom.subject.name: source, atom.object.name: reached}

    # -- binds and filters ---------------------------------------------------

    def apply_bind(self, rows: List[Row], bind: SubstringBind) -> List[Row]:
        out = []
        for row in rows:
            text = _literal(self.graph, row[bind.source])
            value = text[bind.start - 1 : bind.start - 1 + bind.length]
            out.append({**row, bind.target: value})
        return out

    def apply_filter(self, rows: List[Row], flt: DateCompare) -> List[Row]:
        out = []
        for row in rows:
            lhs = _coerce_date(self.graph, row[flt.lhs])
            rhs = _coerce_date(self.graph, row[flt.rhs])
            if lhs is None or rhs is None:
                record(
                    self.diagnostics,
                    "filter_nondate",
                    "row excluded: %s or %s is not a date"
                    % (row.get(flt.lhs), row.get(flt.rhs)),
                )
                continue
            keep = (
                lhs < rhs
                if flt.op == "<"
                else lhs > rhs
                if flt.op == ">"
                else lhs <= rhs
                if flt.op == "<="
                else lhs >= rhs
                if flt.op == ">="
                else lhs == rhs
            )
            if keep:
                out.append(row)
        return out


def _nominal_restrictor_specs(
    graph: KnowledgeGraph, atoms: Sequence[Atom], params: AbstractSet[str]
) -> Dict[str, List[Tuple[str, Term, str]]]:
    """Semi-join push-down: a variable that must also satisfy a
    nominal-anchored non-transitive role atom can only ever bind inside that
    atom's adjacency, so expansions binding it are filtered against the set
    up front. The fixed end is a constant or a parameter. The anchored atom
    itself still runs (then trivially), results are unchanged, but row
    blow-up between the two atoms disappears."""
    specs: Dict[str, List[Tuple[str, Term, str]]] = {}
    for atom in atoms:
        if not isinstance(atom, RoleAtom):
            continue
        if graph.resolve_role(atom.role).transitive:
            continue
        subject_fixed = _nominal(atom.subject, params)
        object_fixed = _nominal(atom.object, params)
        if subject_fixed and not object_fixed:
            specs.setdefault(atom.object.name, []).append(
                (atom.role, atom.subject, "objects")
            )
        elif object_fixed and not subject_fixed:
            specs.setdefault(atom.subject.name, []).append(
                (atom.role, atom.object, "subjects")
            )
    return specs


def _run_pipeline(
    query: PatternQuery,
    graph: KnowledgeGraph,
    diagnostics: Optional[Diagnostics],
    atom_order: Optional[Sequence[Atom]] = None,
    bindings: Optional[Iterable[Row]] = None,
) -> List[Row]:
    """Plan once for the variables the first binding fixes, then run one
    pass per binding, in order, taking the bindings lazily."""
    if not graph.sealed:
        raise SealedGraphError("queries run against sealed graphs only")
    passes = iter([{}] if bindings is None else bindings)
    first = next(passes, None)
    if first is None:
        return []
    params = frozenset(first)
    atoms = list(atom_order) if atom_order is not None else plan(query, graph, params)
    pipeline = _Pipeline(graph, query, atoms, params, diagnostics)
    rows: List[Row] = []
    for binding in chain([first], passes):
        if binding.keys() != params:
            raise ValueError(
                "every binding must fix the same variables: %s, not %s"
                % (sorted(params), sorted(binding))
            )
        for node in binding.values():
            if node not in graph.individuals:
                raise UnresolvedNameError("unknown individual %r" % node)
        rows.extend(pipeline.run(binding))
    return rows


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
    rows = _run_pipeline(query, graph, diagnostics, atom_order)
    projected = [tuple(row[name] for name in query.projection) for row in rows]
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
    return _run_pipeline(query, graph, diagnostics, bindings=bindings)
