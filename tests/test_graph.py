import os
import random

import pytest

from cargokg.graph import (
    GraphError,
    GraphFormatError,
    GraphTypeError,
    KnowledgeGraph,
    SealedGraphError,
    builtin_taxonomy,
    itinerary_node,
    populate,
)
from cargokg.linking import VesselEventIndex, bind_transshipments
from cargokg.segmentation import events_from_records, segment_container_sequence
from cargokg.vessels import reconstruct_all

from helpers import loop_scenario, table3_records
from oracles import reachable_oracle


def test_taxonomy_subsumption_examples():
    tax = builtin_taxonomy()
    assert tax.is_subclass("TransshipmentLoad", "MaritimeTransshipment")
    assert tax.is_subclass("GateOut", "GateOut")
    assert not tax.is_subclass("GateOut", "TripStart")
    assert tax.is_subclass("Arrival", "Event")
    with pytest.raises(GraphError):
        tax.is_subclass("GateOut", "NoSuchConcept")


def test_taxonomy_acyclic_and_roots():
    tax = builtin_taxonomy()
    tax.validate_acyclic()
    assert tax.parent("ContainerEvent") == "Event"
    assert tax.parent("VesselEvent") == "Event"


def test_query_dialect_names_resolve():
    tax = builtin_taxonomy()
    assert tax.resolve("Transshipment_Event") == "MaritimeTransshipment"
    assert tax.resolve("Container_itinerary") == "ContainerItinerary"
    assert tax.resolve("Trip_Start") == "TripStart"
    assert tax.resolve("NoSuch") is None
    g = KnowledgeGraph()
    assert g.resolve_role("hasNextVesselEvent").alias_of == "hasNextEvent"
    assert g.resolve_role("hasVPort").alias_of == "hasLocation"
    assert g.resolve_role("hasTime").alias_of == "hasTimestamp"
    with pytest.raises(GraphError):
        g.resolve_role("hasWarpDrive")


def _table3_graph(vocab):
    per_container = events_from_records(table3_records(), vocab)
    itineraries = segment_container_sequence(per_container["ABCD1234567"])
    flat = [e for events in per_container.values() for e in events]
    calls, vessel_events, trips = reconstruct_all(flat)
    bindings = bind_transshipments(itineraries, VesselEventIndex(vessel_events))
    return populate(itineraries, vessel_events, trips, bindings), itineraries


def test_populate_table3_counts(vocab):
    graph, itineraries = _table3_graph(vocab)
    counts = graph.count_by_concept()
    assert sum(counts.get(c, 0) for c in ("ContainerItinerary",)) == 2
    first = itineraries[0]
    ci = itinerary_node(first.itinerary_id)
    events = graph.objects(ci, "hasContainerEvent")
    assert len(events) == 8
    chain_edges = [
        (s, o)
        for s, o in graph.role_pairs("hasNextEvent")
        if s in events and o in events
    ]
    assert len(chain_edges) == 7
    assert graph.objects(ci, "hasCISourcePort") == ["port_shangai_cn"]
    assert graph.objects(ci, "hasCIDestinationPort") == ["port_antwerpen_be"]
    assert graph.objects(ci, "hasEndTime") == ["ts_2010-07-16"]
    assert graph.attr("ts_2010-07-16", "value") == "Fri 2010-07-16"
    assert graph.attr("cont_abcd1234567", "label") == "ABCD1234567"
    assert graph.objects("cont_abcd1234567", "belongsTo") == ["car_abc"]


def test_populate_empty_inputs():
    graph = populate([], [], [], [])
    assert graph.individuals == {}
    assert graph.sealed
    assert graph.taxonomy.is_subclass("GateIn", "TripStart")


def test_type_check_aborts_with_triple():
    graph = KnowledgeGraph()
    graph.add_individual("port_a", "Port", name="A", country="XX")
    graph.add_individual("cont_x", "Container", label="X")
    with pytest.raises(GraphTypeError) as err:
        graph.add_edge("port_a", "hasCISourcePort", "port_a")
    assert "hasCISourcePort" in str(err.value)
    with pytest.raises(GraphTypeError):
        graph.add_edge("cont_x", "belongsTo", "port_a")
    with pytest.raises(GraphTypeError):
        graph.add_edge("cont_x", "belongsTo", "ghost")


def test_sealed_graph_is_immutable(vocab):
    graph, _ = _table3_graph(vocab)
    with pytest.raises(SealedGraphError):
        graph.add_individual("x", "Port")
    with pytest.raises(SealedGraphError):
        graph.add_edge("a", "hasMO", "b")


def _chain_graph(n):
    graph = KnowledgeGraph()
    ids = []
    for i in range(n):
        node = "ve_x_%05d" % i
        graph.add_individual(node, "Arrival")
        ids.append(node)
    for a, b in zip(ids, ids[1:]):
        graph.add_edge(a, "hasNextEvent", b)
    graph.seal()
    return graph, ids


def test_transitive_successors_chain():
    graph, ids = _chain_graph(3)
    assert graph.transitive_successors(ids[0], "hasNextEvent") == (ids[1], ids[2])
    assert graph.transitive_successors(ids[2], "hasNextEvent") == ()
    assert graph.transitive_predecessors(ids[2], "hasNextEvent") == (ids[0], ids[1])


def test_transitive_requires_transitive_role():
    graph, ids = _chain_graph(2)
    with pytest.raises(GraphError):
        graph.transitive_successors(ids[0], "hasMO")


def test_transitive_requires_sealed():
    graph = KnowledgeGraph()
    graph.add_individual("ve_x_0", "Arrival")
    with pytest.raises(SealedGraphError):
        graph.transitive_successors("ve_x_0", "hasNextEvent")


def test_closure_matches_reachability_oracle():
    rng = random.Random(71)
    for _ in range(200):
        n = rng.randrange(1, 51)
        graph, ids = _chain_graph(n)
        start = rng.choice(ids)
        edges = list(graph.role_pairs("hasNextEvent"))
        expected = reachable_oracle(edges, start)
        got = set(graph.transitive_successors(start, "hasNextEvent"))
        assert got == expected


def test_closure_equals_iterated_single_step(vocab):
    graph, _ = loop_scenario(vocab)
    for node in graph.instances_of("VesselEvent"):
        stepped = set()
        frontier = [node]
        while frontier:
            cursor = frontier.pop()
            for nxt in graph.objects(cursor, "hasNextEvent"):
                if nxt not in stepped:
                    stepped.add(nxt)
                    frontier.append(nxt)
        assert set(graph.transitive_successors(node, "hasNextEvent")) == stepped


def test_memoised_closure_is_consistent():
    graph, ids = _chain_graph(30)
    memo = {}
    # query deep node first so shallow nodes reuse the memo entries
    deep = graph.transitive_successors(ids[10], "hasNextEvent", memo)
    shallow = graph.transitive_successors(ids[0], "hasNextEvent", memo)
    assert set(deep) < set(shallow)
    assert shallow == graph.transitive_successors(ids[0], "hasNextEvent")


def test_vessel_alias_roles_respect_endpoints(vocab):
    graph, itineraries = loop_scenario(vocab)
    container_chain_heads = [
        s for s, _ in graph.role_pairs("hasNextEvent") if s.startswith("ce_")
    ]
    assert container_chain_heads  # container chains exist under the base role
    assert all(
        s.startswith("ve_") and o.startswith("ve_")
        for s, o in graph.role_pairs("hasNextVesselEvent")
    )
    some_ce = container_chain_heads[0]
    assert graph.transitive_successors(some_ce, "hasNextVesselEvent") == ()
    for s, o in graph.role_pairs("hasVPort"):
        assert graph.concept_of(o) == "Port"
        assert graph.concept_of(s) in ("Arrival", "Departure")


def test_save_load_roundtrip(tmp_path, vocab):
    graph, _ = _table3_graph(vocab)
    path1 = str(tmp_path / "a.kb")
    path2 = str(tmp_path / "b.kb")
    graph.save(path1)
    loaded = KnowledgeGraph.load(path1)
    loaded.save(path2)
    assert open(path1).read() == open(path2).read()
    assert loaded.count_by_concept() == graph.count_by_concept()
    assert loaded.edge_count() == graph.edge_count()


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.kb"
    path.write_text("cargokg-graph 99 0 0 0\n")
    with pytest.raises(GraphFormatError):
        KnowledgeGraph.load(str(path))
    other = tmp_path / "other.kb"
    other.write_text("something-else 1 0 0 0\n")
    with pytest.raises(GraphFormatError):
        KnowledgeGraph.load(str(other))


@pytest.mark.parametrize("kind", ["concept", "individual", "edge"])
def test_load_rejects_truncated_records(tmp_path, kind):
    graph = KnowledgeGraph()
    graph.add_concept("StuffedAtDepot", "TripStart")
    graph.add_individual("port_a_xx", "Port", name="A", country="XX")
    graph.add_individual("ce_1", "GateIn", label="1")
    graph.add_edge("ce_1", "hasLocation", "port_a_xx")
    graph.seal()
    path = tmp_path / "g.kb"
    graph.save(str(path))
    lines = path.read_text().splitlines()
    number = next(i for i, line in enumerate(lines, 1) if line.startswith(kind + " "))
    lines[number - 1] = " ".join(lines[number - 1].split(" ")[:2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GraphFormatError, match="line %d: malformed %s" % (number, kind)):
        KnowledgeGraph.load(str(path))


@pytest.mark.parametrize("value", ["Bad%zzName", "Bad%2", "Bad%", "Bad%FFName"])
def test_load_rejects_bad_percent_escapes(tmp_path, value):
    path = tmp_path / "g.kb"
    path.write_text(
        "cargokg-graph 1 0 2 0\n"
        "individual port_a_xx Port country=XX name=A\n"
        "individual port_x Port name=%s\n" % value
    )
    with pytest.raises(GraphFormatError, match="line 3: bad percent-escape"):
        KnowledgeGraph.load(str(path))


def test_percent_escapes_round_trip(tmp_path):
    graph = KnowledgeGraph()
    graph.add_individual("port_x", "Port", name="Bad%zz Name/é")
    graph.seal()
    path = tmp_path / "g.kb"
    graph.save(str(path))
    assert KnowledgeGraph.load(str(path)).attr("port_x", "name") == "Bad%zz Name/é"


def test_failed_save_keeps_previous_file(tmp_path, vocab):
    graph, _ = _table3_graph(vocab)
    path = tmp_path / "g.kb"
    graph.save(str(path))
    before = path.read_bytes()
    unencodable = KnowledgeGraph()
    unencodable.add_individual("port_\udcff", "Port", name="X", country="XX")
    unencodable.seal()
    with pytest.raises(UnicodeEncodeError):
        unencodable.save(str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["g.kb"]


def test_attr_escaping_roundtrip(tmp_path):
    graph = KnowledgeGraph()
    graph.add_individual("port_x", "Port", name="Port Kelang = special", country="MY")
    graph.seal()
    path = str(tmp_path / "g.kb")
    graph.save(path)
    loaded = KnowledgeGraph.load(path)
    assert loaded.attr("port_x", "name") == "Port Kelang = special"


def test_domain_range_soundness_property(vocab):
    graph, _ = loop_scenario(vocab)
    for role_name in graph.roles:
        role = graph.roles[role_name]
        if role.alias_of is not None:
            continue
        for s, o in graph.role_pairs(role_name):
            assert graph.is_subclass(graph.concept_of(s), role.domain)
            assert graph.is_subclass(graph.concept_of(o), role.range)


def test_port_nominals_index(vocab):
    graph, _ = _table3_graph(vocab)
    assert graph.port_nominals["Shangai"] == "port_shangai_cn"
    assert graph.port_nominals["Port Kelang"] == "port_port_kelang_my"
