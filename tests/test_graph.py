import functools
import os
import random
import tempfile
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

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
from cargokg.events import Location, VocabularyMap
from cargokg.linking import (
    BindingKind,
    TransshipmentBinding,
    VesselEventIndex,
    bind_transshipments,
)
from cargokg.segmentation import events_from_records, segment_container_sequence
from cargokg.vessels import VesselTrip, reconstruct_all

from helpers import _scenario_graph, _vessel_chain, loop_scenario, table3_records
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


def test_populate_rejects_unknown_references_with_the_triple(vocab):
    per_container = events_from_records(table3_records(), vocab)
    itineraries = segment_container_sequence(per_container["ABCD1234567"])
    _, vessel_events, trips = reconstruct_all(
        [e for events in per_container.values() for e in events]
    )
    ghost_trip = VesselTrip("trip_ghost", "ghost", vessel_events[0], vessel_events[-1])
    with pytest.raises(GraphTypeError, match="ves_ghost"):
        populate(itineraries, vessel_events, trips + [ghost_trip], [])
    ghost_binding = TransshipmentBinding(
        "99999", vessel_events[0].event_id, BindingKind.LOAD_TO_DEPARTURE
    )
    with pytest.raises(GraphTypeError, match="ce_99999"):
        populate(itineraries, vessel_events, trips, [ghost_binding])


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
    # a container event that links into a vessel chain is no vessel event,
    # so the alias reaches nothing from it, and nothing reaches it
    linked = KnowledgeGraph()
    linked.add_individual("ce_1", "GateIn")
    linked.add_individual("ve_2", "Arrival")
    linked.add_individual("ve_3", "Departure")
    linked.add_edge("ce_1", "hasNextEvent", "ve_2")
    linked.add_edge("ve_2", "hasNextEvent", "ve_3")
    linked.seal()
    assert linked.transitive_successors("ce_1", "hasNextEvent") == ("ve_2", "ve_3")
    assert linked.transitive_successors("ce_1", "hasNextVesselEvent") == ()
    assert linked.transitive_predecessors("ve_3", "hasNextVesselEvent") == ("ve_2",)
    assert linked.transitive_successors("ghost", "hasNextVesselEvent") == ()


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


@pytest.mark.parametrize(
    "content, message",
    [
        (b"cargokg-graph x 0 0 0\n", "line 1: header fields must be integers"),
        (b"cargokg-graph 1 0 two 0\n", "line 1: header fields must be integers"),
        (
            b"cargokg-graph 1 0 2 0\n"
            b"individual port_a_xx Port country=XX name=A\n"
            b"individual port_b_xx Port country=XX name=\xff\n",
            "line 3: not UTF-8",
        ),
        (b"cargokg-graph 1 0 1 0\nindividual a Port name\n", "line 2: no '=' in attribute 'name'"),
        (b"cargokg-graph 1 1 0 0\n", "truncated graph file: header promised 1 concepts"),
    ],
    ids=["version-not-int", "count-not-int", "not-utf8", "no-equals", "concept-count"],
)
def test_load_rejects_malformed_files(tmp_path, content, message):
    path = tmp_path / "g.kb"
    path.write_bytes(content)
    with pytest.raises(GraphFormatError, match=message):
        KnowledgeGraph.load(str(path))


def test_attributes_may_share_a_parameter_name(tmp_path):
    path = tmp_path / "g.kb"
    path.write_text("cargokg-graph 1 0 1 0\nindividual a Port concept=x node_id=y\n")
    assert KnowledgeGraph.load(str(path)).individuals["a"].attrs == {
        "concept": "x",
        "node_id": "y",
    }


@functools.lru_cache(maxsize=None)
def _saved_bytes() -> bytes:
    """The saved form of a scenario graph: individuals with attributes, edges
    of every role kind."""
    graph, _ = loop_scenario(VocabularyMap())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.kb")
        graph.save(path)
        with open(path, "rb") as fh:
            return fh.read()


_PAYLOADS = st.one_of(
    st.binary(min_size=1, max_size=6),
    st.sampled_from(
        [b" ", b"\n", b"=", b"%", b"%zz", b"\xff", b"\xc3", b"0", b"-1", b"x",
         b"individual ", b"edge ", b"concept ", b"node_id=", b"Port "]
    ),
)
_MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete", "drop_line", "copy_line"]),
        st.integers(min_value=0, max_value=1 << 16),
        _PAYLOADS,
    ),
    min_size=1,
    max_size=4,
)


def _mutate(data: bytes, mutations) -> bytes:
    out = bytearray(data)
    for op, at, payload in mutations:
        pos = at % (len(out) + 1)
        if op == "insert":
            out[pos:pos] = payload
        elif op == "replace":
            out[pos:pos + len(payload)] = payload
        elif op == "delete":
            del out[pos:pos + len(payload)]
        else:
            lines = bytes(out).split(b"\n")
            line = lines[at % len(lines)]
            if op == "drop_line":
                del lines[at % len(lines)]
            else:
                lines.insert(len(payload) % len(lines), line)
            out = bytearray(b"\n".join(lines))
    return bytes(out)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_MUTATIONS)
def test_load_of_a_mutated_file_seals_or_raises_graph_error(mutations):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.kb")
        with open(path, "wb") as fh:
            fh.write(_mutate(_saved_bytes(), mutations))
        try:
            graph = KnowledgeGraph.load(path)
        except GraphError:
            return
        assert graph.sealed


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


# Two ports share the display name "Victoria"; the one referenced first
# (Seychelles) sorts last by id, so a port index that followed declaration
# order would differ between populate and load.
VICTORIA_LINES = [
    "3001 | FIGU0000514 | 2010-05-01 | Received at Origin | Victoria (SC) | Empty | --",
    "3002 | FIGU0000514 | 2010-05-02 | Gate In | Victoria (SC) | Full | --",
    "3003 | FIGU0000514 | 2010-05-03 | Loaded | Victoria (SC) | Full | Vessel1",
    "3004 | FIGU0000514 | 2010-05-09 | Discharged | Victoria (CA) | Full | Vessel1",
    "3005 | FIGU0000514 | 2010-05-09 | Final Destination | Victoria (CA) | Full | --",
]


def test_populate_and_load_agree_whatever_the_declaration_order(tmp_path, vocab):
    vessel = _vessel_chain(
        "vessel1",
        [
            (Location("Victoria", "SC"), date(2010, 5, 2), date(2010, 5, 3)),
            (Location("Victoria", "CA"), date(2010, 5, 9), None),
        ],
    )
    graph, _ = _scenario_graph(VICTORIA_LINES, vessel, vocab)
    path = str(tmp_path / "g.kb")
    graph.save(path)
    loaded = KnowledgeGraph.load(path)
    assert graph.port_nominals == loaded.port_nominals == {"Victoria": "port_victoria_sc"}
    for concept in graph.taxonomy.concepts():
        assert graph.instances_of(concept) == loaded.instances_of(concept), concept
    for role in graph.roles:
        for direction in ("out", "in"):
            assert graph.adjacency(role, direction) == loaded.adjacency(role, direction), (
                role,
                direction,
            )
