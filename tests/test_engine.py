import random
from dataclasses import replace
from datetime import date
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from cargokg import engine
from cargokg.diagnostics import Diagnostics
from cargokg.engine import UnresolvedNameError, evaluate, evaluate_rows, plan, resolve_names
from cargokg.graph import KnowledgeGraph, SealedGraphError, timestamp_node
from cargokg.events import timestamp_literal
from cargokg.patterns import DETECTORS, load_query
from cargokg.queries import (
    Const,
    RoleAtom,
    SubstringBind,
    TypeAtom,
    Var,
    parse_query,
    substitute_nominals,
)

from helpers import loop_scenario, unnecessary_scenario
from oracles import oracle_evaluate
from randgraphs import build_random_graph, build_random_query


def _empty_graph():
    g = KnowledgeGraph()
    g.seal()
    return g


def test_query_over_empty_graph():
    g = _empty_graph()
    result = evaluate(parse_query("SELECT ?x WHERE { ?x a st:Port . }"), g)
    assert result.rows == []


def test_unnecessary_query_on_fixture(vocab):
    graph, _ = unnecessary_scenario(vocab)
    query = substitute_nominals(
        load_query("unnecessary_transshipment"), {"port": "port_p4_xx"}
    )
    result = evaluate(query, graph)
    assert len(result.rows) == 1
    c, end_ci, ves_stop = result.rows[0]
    assert c == "ci_figu0000620_001"
    assert end_ci == "2010-04-10"
    assert ves_stop == "2010-04-11"


def test_loop_filtered_query_on_fixture(vocab):
    graph, _ = loop_scenario(vocab)
    query = substitute_nominals(load_query("loop_filtered"), {"port": "port_p1_xx"})
    result = evaluate(query, graph)
    assert len(result.rows) == 1
    assert result.rows[0] == ("ci_figu0000514_001", "2010-03-13", "2010-03-12")


def test_loop_filtered_query_negated_routing(vocab):
    graph, _ = loop_scenario(vocab, loop_routing=False)
    query = substitute_nominals(load_query("loop_filtered"), {"port": "port_p1_xx"})
    assert evaluate(query, graph).rows == []


def test_unknown_names_raise(vocab):
    graph, _ = loop_scenario(vocab)
    with pytest.raises(UnresolvedNameError):
        evaluate(parse_query("SELECT ?x WHERE { ?x a st:Imaginary . }"), graph)
    with pytest.raises(UnresolvedNameError):
        evaluate(
            parse_query("SELECT ?x WHERE { ?x st:hasLocation st:port_nowhere_zz . }"),
            graph,
        )


def test_plan_puts_nominal_first(vocab):
    graph, _ = loop_scenario(vocab)
    query = substitute_nominals(load_query("loop_filtered"), {"port": "port_p1_xx"})
    ordered = plan(query, graph)
    first = ordered[0]
    assert isinstance(first, RoleAtom)
    assert isinstance(first.object, Const) or isinstance(first.subject, Const)
    # the source-port nominal comes before any transitive chain atom
    roles = [a.role for a in ordered if isinstance(a, RoleAtom)]
    assert roles.index("hasCISourcePort") < roles.index("hasNextEvent")


def test_plan_joins_into_a_restricted_variable_by_its_restriction(vocab, monkeypatch):
    # ?v1 st:hasLocation ?port restricts ?v1, so the transitive join into
    # ?v1 runs before the join to the itinerary's other events, however far
    # the successor role branches (at 20K itineraries its mean branching
    # tips the other way)
    graph, _ = loop_scenario(vocab)
    branching = graph.role_branching
    monkeypatch.setattr(
        graph,
        "role_branching",
        lambda role: (2.0, 2.0) if graph.resolve_role(role).transitive else branching(role),
    )
    query = substitute_nominals(load_query("loop_intermediate"), {"port": Var("port")})
    ordered = plan(query, graph, frozenset({"port"}))
    position = {
        (a.role, a.object.name): i for i, a in enumerate(ordered) if isinstance(a, RoleAtom)
    }
    assert position["hasNextEvent", "v1"] < position["hasContainerEvent", "t2"]


def _greedy_reference(graph, atoms, params):
    """The planner's order, every remaining atom estimated afresh at every
    placement."""
    restricted = frozenset(engine._nominal_restrictor_specs(graph, atoms, params))

    def free(atom):
        return [v for v in engine._atom_vars(atom) if v not in params]

    def key(item, joined):
        index, atom = item
        tier, size = engine._estimate(graph, atom, joined | params, params, restricted)
        connected = not joined or not free(atom) or any(v in joined for v in free(atom))
        return (0 if connected else 1, tier, size, index)

    expected, remaining, joined = [], list(enumerate(atoms)), set()
    while remaining:
        remaining.sort(key=lambda item: key(item, joined))
        expected.append(remaining.pop(0)[1])
        joined.update(free(expected[-1]))
    return expected


def test_plan_estimates_each_atom_state_once(vocab, monkeypatch):
    # an atom's estimate depends only on which of its own variables are
    # bound: the planner asks once per state, and orders as if it asked
    # again at every placement
    graph, _ = loop_scenario(vocab)
    query = substitute_nominals(load_query("loop_intermediate"), {"port": Var("port")})
    params = frozenset({"port"})
    atoms = resolve_names(query, graph)
    expected = _greedy_reference(graph, atoms, params)

    def free(atom):
        return [v for v in engine._atom_vars(atom) if v not in params]

    states = []
    estimate = engine._estimate

    def counted(graph, atom, bound, *rest):
        states.append((atom, frozenset(v for v in free(atom) if v in bound)))
        return estimate(graph, atom, bound, *rest)

    monkeypatch.setattr(engine, "_estimate", counted)
    assert plan(query, graph, params) == expected
    assert len(states) == len(set(states))
    # estimating every remaining atom at every placement makes n(n+1)/2
    assert len(states) < len(atoms) * (len(atoms) + 1) // 2


def test_plan_orders_like_the_greedy_reference(vocab):
    # each template, its anchors fixed at realized ports and bound as
    # parameters
    for build in (loop_scenario, unnecessary_scenario):
        graph, _ = build(vocab)
        for template, anchors in DETECTORS.values():
            query = load_query(template)
            for pick in (0, -1):
                fixed = substitute_nominals(
                    query, {name: realized(graph)[pick] for name, realized in anchors.items()}
                )
                atoms = resolve_names(fixed, graph)
                assert plan(fixed, graph) == _greedy_reference(graph, atoms, frozenset())
            params = frozenset(anchors)
            lifted = substitute_nominals(query, {name: Var(name) for name in params})
            atoms = resolve_names(lifted, graph)
            assert plan(lifted, graph, params) == _greedy_reference(graph, atoms, params)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_plan_orders_like_the_greedy_reference_on_random_queries(seed):
    rng = random.Random(seed)
    graph = build_random_graph(rng, plant_patterns=True)
    for _ in range(4):
        query = build_random_query(rng, graph)
        atoms = resolve_names(query, graph)
        assert plan(query, graph) == _greedy_reference(graph, atoms, frozenset())


def test_plan_requires_a_sealed_graph():
    graph = KnowledgeGraph()
    graph.add_individual("port_p1_xx", "Port")
    with pytest.raises(SealedGraphError):
        plan(parse_query("SELECT ?x WHERE { ?x a st:Port . }"), graph)


def test_plan_preserves_semantics(vocab):
    graph, _ = loop_scenario(vocab)
    query = substitute_nominals(load_query("loop_filtered"), {"port": "port_p1_xx"})
    atoms = resolve_names(query, graph)
    planned = evaluate(query, graph)
    identity = evaluate(query, graph, atom_order=atoms)
    assert planned.rows == identity.rows
    rng = random.Random(3)
    for _ in range(5):
        shuffled = atoms[:]
        rng.shuffle(shuffled)
        assert evaluate(query, graph, atom_order=shuffled).rows == planned.rows


def test_explicit_chaining_matches_transitive_semantics(vocab):
    graph, _ = loop_scenario(vocab)
    hop = parse_query(
        "SELECT DISTINCT ?a ?b WHERE { ?a st:hasNextVesselEvent ?b . }"
    )
    two_hop = parse_query(
        "SELECT DISTINCT ?a ?c WHERE { "
        "?a st:hasNextVesselEvent ?b . ?b st:hasNextVesselEvent ?c . }"
    )
    hops = set(evaluate(hop, graph).rows)
    twos = set(evaluate(two_hop, graph).rows)
    # chaining two transitive atoms never leaves the closure
    assert twos <= hops


def test_distinct_collapses_duplicates(vocab):
    graph, _ = loop_scenario(vocab)
    bare = parse_query("SELECT ?v WHERE { ?e st:hasMO ?v . ?e a st:VesselEvent . }")
    dedup = parse_query(
        "SELECT DISTINCT ?v WHERE { ?e st:hasMO ?v . ?e a st:VesselEvent . }"
    )
    assert len(evaluate(bare, graph).rows) > len(evaluate(dedup, graph).rows)


def test_filter_excludes_nondate_with_diagnostic():
    g = KnowledgeGraph()
    g.add_individual("port_a_xx", "Port", name="A", country="XX")
    g.add_individual(timestamp_node(date(2012, 1, 2)), "Timestamp",
                     value=timestamp_literal(date(2012, 1, 2)))
    g.add_individual("ce_1", "GateIn", label="1")
    g.add_individual("ce_2", "GateIn", label="2")
    g.add_edge("ce_1", "hasTimestamp", timestamp_node(date(2012, 1, 2)))
    g.add_edge("ce_2", "hasTimestamp", timestamp_node(date(2012, 1, 2)))
    g.add_edge("ce_1", "hasLocation", "port_a_xx")
    g.add_edge("ce_2", "hasLocation", "port_a_xx")
    g.seal()
    diag = Diagnostics()
    query = parse_query(
        "SELECT ?x WHERE { ?x st:hasLocation ?p . ?x st:hasTimestamp ?tsnode . "
        "BIND( fn:substring(?p,1,10) AS ?notadate ) . "
        "BIND( fn:substring(?tsnode,5,10) AS ?d ) . "
        "FILTER ( xsd:date(?notadate) < xsd:date(?d) ) }"
    )
    result = evaluate(query, graph=g, diagnostics=diag)
    assert result.rows == []
    assert diag.count("filter_nondate") == 2


def test_substring_bind_recovers_iso_date(vocab):
    graph, _ = loop_scenario(vocab)
    query = parse_query(
        "SELECT DISTINCT ?d WHERE { ?c a st:Container_itinerary . "
        "?c st:hasEndTime ?cd . BIND( fn:substring(?cd,5,10) AS ?d ) }"
    )
    for (value,) in evaluate(query, graph).rows:
        assert date.fromisoformat(value)  # parses


def test_monotonicity_adding_edges(vocab):
    rng = random.Random(11)
    graph = build_random_graph(rng)
    query = parse_query(
        "SELECT ?e ?p WHERE { ?e a st:ContainerEvent . ?e st:hasLocation ?p . }"
    )
    before = set(evaluate(query, graph).rows)

    # rebuild with one extra location edge on an event that has none yet
    rng2 = random.Random(11)
    bigger = build_random_graph(rng2, plant_patterns=True)
    # the same seed rebuilds the same graph; verify then grow it
    assert set(evaluate(query, bigger).rows) == before
    fresh = KnowledgeGraph()
    # copy individuals and edges, then add one more edge pre-seal
    for node in sorted(bigger.individuals):
        fresh.add_individual(node, bigger.concept_of(node), **bigger.attrs(node))
    for role_name in sorted(fresh.roles):
        if fresh.roles[role_name].alias_of is not None:
            continue
        for s, o in bigger.role_pairs(role_name):
            fresh.add_edge(s, role_name, o)
    events = [n for n in sorted(bigger.individuals) if n.startswith("ce_")]
    ports = [n for n in sorted(bigger.individuals) if n.startswith("port_")]
    fresh.add_edge(events[0], "hasLocation", ports[-1])
    fresh.seal()
    after = set(evaluate(query, fresh).rows)
    assert before <= after


def test_oracle_equivalence_smoke():
    rng = random.Random(1234)
    for _ in range(12):
        graph = build_random_graph(rng)
        for _ in range(4):
            query = build_random_query(rng, graph)
            got = evaluate(query, graph).rows
            expected = oracle_evaluate(query, graph)
            assert sorted(got) == sorted(expected)


def test_oracle_equivalence_appendix_queries(vocab):
    graph, _ = loop_scenario(vocab)
    for name, mapping in [
        ("loop_filtered", {"port": "port_p1_xx"}),
        ("loop", {"port1": "port_p1_xx", "port2": "port_px_xx"}),
        ("loop_intermediate", {"port": "port_p1_xx"}),
        ("unnecessary_transshipment", {"port": "port_px_xx"}),
    ]:
        query = substitute_nominals(load_query(name), mapping)
        assert sorted(evaluate(query, graph).rows) == oracle_evaluate(query, graph)


def test_evaluate_rows_returns_full_bindings(vocab):
    graph, _ = unnecessary_scenario(vocab)
    query = substitute_nominals(
        load_query("unnecessary_transshipment"), {"port": "port_p4_xx"}
    )
    rows = evaluate_rows(query, graph)
    # class variables multiply rows (leaf + ancestor classes); the projected
    # identity stays unique
    assert len({(r["c"], r["t"], r["v"], r["v1"]) for r in rows}) == 1
    for row in rows:
        for var in ("c", "cd", "t", "v", "v1", "endCI", "vesStop"):
            assert var in row


def _placeholders(query):
    names = {
        term.name
        for atom in query.atoms
        for term in vars(atom).values()
        if isinstance(term, Const)
    }
    return sorted(names & {"port", "port1", "port2"})


def _multiset(rows):
    return sorted(tuple(sorted(row.items())) for row in rows)


def _check_bindings_equal_substitutions(graph):
    """For every shipped template, one call with a binding per port (pair)
    gives the union of the substituted queries' rows, port columns added;
    and each substituted query gets the parameters' plan, its constants
    renamed back to the parameters."""
    ports = sorted(n for n in graph.individuals if n.startswith("port_"))
    for name, anchors in dict(DETECTORS.values()).items():
        template = load_query(name)
        params = list(anchors)
        assert _placeholders(template) == sorted(params), name
        bindings = [dict(zip(params, nodes)) for nodes in product(ports, repeat=len(params))]
        expected = [
            {**row, **binding}
            for binding in bindings
            for row in evaluate_rows(substitute_nominals(template, binding), graph)
        ]
        lifted = substitute_nominals(template, {p: Var(p) for p in params})
        got = evaluate_rows(lifted, graph, bindings=iter(bindings))
        assert _multiset(got) == _multiset(expected), name
        lifted_plan = plan(lifted, graph, frozenset(params))
        for binding in bindings:
            renamed = {node: Var(p) for p, node in binding.items()}
            if len(renamed) < len(binding):
                continue  # one port for two parameters: its atoms may merge
            planned = plan(substitute_nominals(template, binding), graph)
            back = substitute_nominals(replace(template, atoms=planned), renamed)
            assert back.atoms == lifted_plan, (name, binding)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bound_parameters_equal_union_of_substitutions(seed):
    _check_bindings_equal_substitutions(
        build_random_graph(random.Random(seed), plant_patterns=True)
    )


def test_bound_parameters_on_fixtures(vocab):
    # the random graphs rarely match the loop-intermediate and unnecessary-
    # transshipment templates; the two fixtures match every template
    for build in (loop_scenario, unnecessary_scenario):
        _check_bindings_equal_substitutions(build(vocab)[0])


def test_bindings_are_checked(vocab):
    graph, _ = loop_scenario(vocab)
    lifted = substitute_nominals(load_query("loop_filtered"), {"port": Var("port")})
    assert evaluate_rows(lifted, graph, bindings=[]) == []
    with pytest.raises(UnresolvedNameError):
        evaluate_rows(lifted, graph, bindings=[{"port": "port_nowhere_zz"}])
    with pytest.raises(ValueError):
        evaluate_rows(lifted, graph, bindings=[{"port": "port_p1_xx"}, {}])


def _agrees_with_oracle_in_every_order(query, graph):
    expected = oracle_evaluate(query, graph)
    assert sorted(evaluate(query, graph).rows) == expected, "planned order"
    for order in permutations(resolve_names(query, graph)):
        got = evaluate(query, graph, atom_order=list(order)).rows
        assert sorted(got) == expected, order
    return expected


def test_a_bind_into_a_bound_variable_is_an_error(vocab):
    # a hand-built query skips the parser's check; the engine used to
    # overwrite the first value, or check the bound one, by atom order
    graph, _ = loop_scenario(vocab)
    parsed = parse_query(
        "SELECT ?x ?y WHERE { ?x a st:Port . BIND( fn:substring(?x,1,8) AS ?y ) }"
    )
    twice = replace(parsed, binds=parsed.binds + [SubstringBind("x", 2, 3, "y")])
    into_atom = replace(parsed, atoms=parsed.atoms + [TypeAtom(Var("y"), Const("Port"))])
    already_bound = r"bind target \?y is already bound"
    for query in (twice, into_atom):
        for order in permutations(resolve_names(query, graph)):
            with pytest.raises(ValueError, match=already_bound):
                evaluate(query, graph, atom_order=list(order))
    with pytest.raises(ValueError, match=already_bound):
        evaluate_rows(parsed, graph, bindings=[{"y": "port_p1_xx"}])


def _arrivals_graph():
    g = KnowledgeGraph()
    for node in "abcd":
        g.add_individual(node, "Arrival")
    for s, o in [("a", "b"), ("a", "c"), ("b", "d")]:
        g.add_edge(s, "hasNextEvent", o)
    g.seal()
    return g


def test_unbound_transitive_atom_lists_each_pair_once():
    graph = _arrivals_graph()
    expected = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "d")]
    bare = parse_query("SELECT ?x ?y WHERE { ?x st:hasNextEvent ?y . }")
    assert evaluate(bare, graph).rows == expected
    typed = parse_query("SELECT ?x ?y WHERE { ?x a st:Arrival . ?x st:hasNextEvent ?y . }")
    assert _agrees_with_oracle_in_every_order(typed, graph) == expected


def test_closures_of_a_role_and_its_alias_are_kept_apart():
    # ve_2's hasNextEvent predecessors include a container event; its
    # hasNextVesselEvent predecessors do not, whichever closure runs first
    g = KnowledgeGraph()
    g.add_individual("ce_1", "GateIn")
    g.add_individual("ve_0", "Departure")
    g.add_individual("ve_2", "Arrival")
    g.add_individual("ce_3", "GateOut")
    g.add_edge("ce_1", "hasNextEvent", "ve_2")
    g.add_edge("ve_0", "hasNextEvent", "ve_2")
    g.add_edge("ve_2", "hasNextEvent", "ce_3")
    g.seal()
    query = parse_query(
        "SELECT ?x ?y WHERE { ?z a st:Arrival . ?x st:hasNextEvent ?z . "
        "?y st:hasNextVesselEvent ?z . }"
    )
    assert _agrees_with_oracle_in_every_order(query, g) == [("ce_1", "ve_0"), ("ve_0", "ve_0")]
    # the alias holds at the end a closure starts from, too: a container
    # event neither leads to nor follows a vessel event under it
    for text in (
        "SELECT ?x ?y WHERE { ?x a st:GateIn . ?x st:hasNextVesselEvent ?y . }",
        "SELECT ?x ?y WHERE { ?y a st:GateOut . ?x st:hasNextVesselEvent ?y . }",
    ):
        assert _agrees_with_oracle_in_every_order(parse_query(text), g) == []


def test_an_id_that_normalises_onto_a_concept_is_not_that_concept():
    # "port" is an individual id, and also the normalised form of the
    # concept name Port: as a row value it is the individual only, whichever
    # atom binds it first
    g = KnowledgeGraph()
    g.add_individual("port", "Port")
    g.add_individual("e1", "GateIn")
    g.add_edge("e1", "hasLocation", "port")
    g.seal()
    for text in (
        "SELECT ?e ?p ?y WHERE { ?e st:hasLocation ?p . ?y a ?p . }",
        "SELECT ?e ?p WHERE { ?e st:hasLocation ?p . ?p rdfs:subClassOf st:Location . }",
    ):
        assert _agrees_with_oracle_in_every_order(parse_query(text), g) == []


@pytest.mark.parametrize(
    "text",
    [
        # both ends unbound: direct, transitive, alias, one variable twice
        "SELECT ?x ?y WHERE { ?x st:hasLocation ?y . }",
        "SELECT ?x ?y WHERE { ?x st:hasNextEvent ?y . }",
        "SELECT ?x ?y WHERE { ?x st:hasNextVesselEvent ?y . }",
        "SELECT ?x WHERE { ?x st:hasNextEvent ?x . }",
        # type atom with both terms unbound, and a class variable's modes
        "SELECT ?x ?c WHERE { ?x a ?c . }",
        "SELECT ?e ?c WHERE { ?c rdfs:subClassOf st:VesselEvent . ?e a ?c . }",
        "SELECT ?e ?c WHERE { ?e a ?c . ?e st:hasVPort ?p . ?c rdfs:subClassOf st:Event . }",
        # alias roles joined along both directions
        "SELECT ?v ?w ?p WHERE { ?v st:hasVPort ?p . ?v st:hasNextVesselEvent ?w . "
        "?w st:hasVPort ?p . }",
        # a class variable used as a role subject binds no individual
        "SELECT ?c ?p WHERE { ?e a ?c . ?c st:hasLocation ?p . }",
        # a constant subject of a type atom, with a class variable or a concept
        "SELECT ?c WHERE { st:port_p1_xx a ?c . }",
        "SELECT ?e WHERE { st:port_p1_xx a st:Port . ?e st:hasLocation st:port_p1_xx . }",
        # a constant child of a subclass atom, true and false
        "SELECT ?v WHERE { st:Arrival rdfs:subClassOf st:VesselEvent . ?v a st:Arrival . }",
        "SELECT ?e WHERE { st:Port rdfs:subClassOf st:Event . ?e st:hasLocation ?p . }",
    ],
)
def test_access_modes_agree_with_oracle_in_every_order(vocab, text):
    graph, _ = loop_scenario(vocab)
    _agrees_with_oracle_in_every_order(parse_query(text), graph)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_shuffled_atom_orders_agree_with_oracle(seed):
    rng = random.Random(seed)
    graph = build_random_graph(rng)
    for _ in range(3):
        query = build_random_query(rng, graph)
        expected = oracle_evaluate(query, graph)
        atoms = resolve_names(query, graph)
        for _ in range(3):
            rng.shuffle(atoms)
            assert sorted(evaluate(query, graph, atom_order=atoms).rows) == expected
