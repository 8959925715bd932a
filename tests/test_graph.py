import functools
import os
import random
import string
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from datetime import date
from pathlib import Path
from urllib.parse import quote

import pytest
from hypothesis import given, settings, strategies as st

import cargokg
from cargokg.graph import (
    GraphError,
    GraphFormatError,
    GraphTypeError,
    KnowledgeGraph,
    SealedGraphError,
    _individual_record,
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
from cargokg.vessels import VesselEventKind, VesselTrip, reconstruct_all
from cargokg.engine import UnresolvedNameError, evaluate
from cargokg.pipeline import run_pipeline
from cargokg.queries import parse_query
from cargokg.synthgen import GenConfig, generate

from helpers import _scenario_graph, _vessel_chain, loop_scenario, table3_records
from oracles import oracle_evaluate, reachable_oracle
from randgraphs import build_random_graph

# the header of a saved graph of this format version, before its three counts
HEADER = "cargokg-graph %d" % KnowledgeGraph.FORMAT_VERSION


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
    for concept in tax.concepts():
        chain = tax.ancestors_or_self(concept)
        assert chain[0] == concept and chain[-1] == "Thing"
        assert len(set(chain)) == len(chain)
    with pytest.raises(GraphError):
        tax.add("Loose", "NoSuchParent")
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
    assert graph.objects(ci, "hasCISourcePort") == ("port_shangai_cn",)
    assert graph.objects(ci, "hasCIDestinationPort") == ("port_antwerpen_be",)
    assert graph.objects(ci, "hasEndTime") == ("ts_2010-07-16",)
    assert graph.attr("ts_2010-07-16", "value") == "Fri 2010-07-16"
    assert graph.attr("cont_abcd1234567", "label") == "ABCD1234567"
    assert graph.objects("cont_abcd1234567", "belongsTo") == ("car_abc",)


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
    departure = next(e for e in vessel_events if e.kind is VesselEventKind.DEPARTURE)
    arrival = next(e for e in vessel_events if e.kind is VesselEventKind.ARRIVAL)
    stray = replace(departure, event_id="ve_stray")
    for trip, message in (
        (
            VesselTrip("trip_stray", departure.vessel_id, stray, arrival),
            r"\(trip_stray, hasDepartureEvent, ve_stray\) references an unknown individual",
        ),
        (
            VesselTrip("trip_back", arrival.vessel_id, arrival, arrival),
            r"\(trip_back, hasDepartureEvent, %s\): object concept Arrival outside range"
            r" Departure" % arrival.event_id,
        ),
    ):
        with pytest.raises(GraphTypeError, match=message):
            populate(itineraries, vessel_events, trips + [trip], [])
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


def test_instance_and_branching_reads_require_sealed():
    # read before seal, both used to cache the half-built graph: no
    # instances, and a branching counted from the ids' string lengths
    graph = KnowledgeGraph()
    graph.add_individual("p1", "Port")
    for node in ("ve_1", "ve_2"):
        graph.add_individual(node, "Arrival")
        graph.add_edge(node, "hasLocation", "p1")
    with pytest.raises(SealedGraphError):
        graph.instances_of("Port")
    with pytest.raises(SealedGraphError):
        graph.role_branching("hasLocation")
    graph.seal()
    assert graph.instances_of("Port") == ["p1"]
    assert graph.role_branching("hasLocation") == (1.0, 2.0)


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


def _agrees_with_oracle(graph, text):
    query = parse_query(text)
    rows = evaluate(query, graph).rows
    assert rows == oracle_evaluate(query, graph), text
    return rows


def test_vessel_alias_roles_respect_endpoints(vocab):
    graph, itineraries = loop_scenario(vocab)
    container_chain_heads = [
        s for s, _ in graph.role_pairs("hasNextEvent") if s.startswith("ce_")
    ]
    assert container_chain_heads  # container chains exist under the base role
    pairs = _agrees_with_oracle(graph, "SELECT ?s ?o WHERE { ?s st:hasNextVesselEvent ?o . }")
    assert pairs and all(s.startswith("ve_") and o.startswith("ve_") for s, o in pairs)
    some_ce = container_chain_heads[0]
    text = "SELECT ?o WHERE { st:%s st:hasNextVesselEvent ?o . }" % some_ce
    assert _agrees_with_oracle(graph, text) == []
    ports = _agrees_with_oracle(graph, "SELECT ?e ?p WHERE { ?e st:hasVPort ?p . }")
    assert ports
    for s, o in ports:
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
    base = "SELECT ?o WHERE { st:ce_1 st:hasNextEvent ?o . }"
    assert _agrees_with_oracle(linked, base) == [("ve_2",), ("ve_3",)]
    alias = "SELECT ?o WHERE { st:ce_1 st:hasNextVesselEvent ?o . }"
    assert _agrees_with_oracle(linked, alias) == []
    into = "SELECT ?s WHERE { ?s st:hasNextVesselEvent st:ve_3 . }"
    assert _agrees_with_oracle(linked, into) == [("ve_2",)]
    with pytest.raises(UnresolvedNameError):
        evaluate(parse_query("SELECT ?o WHERE { st:ghost st:hasNextVesselEvent ?o . }"), linked)


def test_graph_lookups_take_stored_roles_only(vocab):
    graph, _ = loop_scenario(vocab)
    vessel_event = graph.instances_of("VesselEvent")[0]
    assert graph.objects(vessel_event, "hasNextEvent")
    for alias in ("hasNextVesselEvent", "hasVPort", "hasTime"):
        for lookup in (
            lambda: graph.objects(vessel_event, alias),
            lambda: graph.subjects(vessel_event, alias),
            lambda: graph.adjacency(alias, "out"),
            lambda: list(graph.role_pairs(alias)),
            lambda: graph.role_branching(alias),
        ):
            with pytest.raises(GraphError, match="alias"):
                lookup()
    for closure in (graph.transitive_successors, graph.transitive_predecessors):
        with pytest.raises(GraphError, match="alias"):
            closure(vessel_event, "hasNextVesselEvent")
    fresh = KnowledgeGraph()
    fresh.add_individual("ve_1", "Arrival")
    fresh.add_individual("ve_2", "Departure")
    with pytest.raises(GraphError, match="alias"):
        fresh.add_edge("ve_1", "hasNextVesselEvent", "ve_2")
    # the role table still declares the aliases, for name resolution
    assert graph.base_role(graph.resolve_role("hasNextVesselEvent")).name == "hasNextEvent"


def test_save_load_roundtrip(tmp_path, vocab):
    graph, _ = _table3_graph(vocab)
    path1 = str(tmp_path / "a.kb")
    path2 = str(tmp_path / "b.kb")
    graph.save(path1)
    loaded = KnowledgeGraph.load(path1)
    loaded.save(path2)
    assert Path(path1).read_text() == Path(path2).read_text()
    assert loaded.count_by_concept() == graph.count_by_concept()
    assert loaded.edge_count() == graph.edge_count()


def test_load_rejects_bad_version(tmp_path):
    # version 1 stored a trip's ports, dates and event ids as attributes
    path = tmp_path / "bad.kb"
    for version in (99, 1):
        path.write_text("cargokg-graph %d 0 0 0\n" % version)
        with pytest.raises(GraphFormatError, match="format version %d unsupported" % version):
            KnowledgeGraph.load(str(path))
    other = tmp_path / "other.kb"
    other.write_text("something-else 1 0 0 0\n")
    with pytest.raises(GraphFormatError):
        KnowledgeGraph.load(str(other))


@pytest.mark.parametrize(
    "content, message",
    [
        (b"cargokg-graph x 0 0 0\n", "line 1: header fields must be integers"),
        (HEADER.encode() + b" 0 two 0\n", "line 1: header fields must be integers"),
        (
            HEADER.encode() + b" 0 2 0\n"
            b"individual port_a_xx Port country=XX name=A\n"
            b"individual port_b_xx Port country=XX name=\xff\n",
            "line 3: not UTF-8",
        ),
        (
            HEADER.encode() + b" 0 1 0\nindividual a Port name\n",
            "line 2: no '=' in attribute 'name'",
        ),
        (HEADER.encode() + b" 1 0 0\n", "truncated graph file: header promised 1 concepts"),
        (
            HEADER.encode() + b" 0 1 0\nindividual port_a Port name=A name=B country=XX\n",
            "line 2: attribute 'name' repeated",
        ),
    ],
    ids=["version-not-int", "count-not-int", "not-utf8", "no-equals", "concept-count",
         "repeated-key"],
)
def test_load_rejects_malformed_files(tmp_path, content, message):
    path = tmp_path / "g.kb"
    path.write_bytes(content)
    with pytest.raises(GraphFormatError, match=message):
        KnowledgeGraph.load(str(path))


_TWO_INDIVIDUALS = (
    HEADER + " 0 2 1\n"
    "individual a ContainerItinerary\n"
    "individual p Port name=P\n"
)


@pytest.mark.parametrize(
    "record, message",
    [
        ("edge a hasMO ghost", r"line 4: edge \(a, hasMO, ghost\) references an unknown"),
        ("edge a hasFoo a", "line 4: unknown role name 'hasFoo'"),
        ("individual a ContainerItinerary", "line 4: individual a declared twice"),
        ("edge p hasCISourcePort p", "line 4: .*subject concept Port outside domain"),
        ("edge a hasCISourcePort a", "line 4: .*object concept ContainerItinerary outside range"),
        ("edge p hasVPort p", "line 4: role hasVPort is an alias of hasLocation"),
        ("concept GateIn TripStart", "line 4: concept GateIn already declared"),
    ],
    ids=["unknown-individual", "unknown-role", "declared-twice", "domain", "range", "alias",
         "concept-twice"],
)
def test_load_errors_of_graph_rules_name_their_line(tmp_path, record, message):
    path = tmp_path / "g.kb"
    path.write_text(_TWO_INDIVIDUALS + record + "\n")
    with pytest.raises(GraphFormatError, match=message) as err:
        KnowledgeGraph.load(str(path))
    assert isinstance(err.value.__cause__, GraphError)


def test_attributes_may_share_a_parameter_name(tmp_path):
    path = tmp_path / "g.kb"
    path.write_text(HEADER + " 0 1 0\nindividual a Port concept=x node_id=y\n")
    assert KnowledgeGraph.load(str(path)).attrs("a") == {
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
        HEADER + " 0 2 0\n"
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


@pytest.mark.parametrize("node_id", ["", "car_ab c", "x\ry", "tab\there", "nl\n"])
def test_individual_ids_that_would_not_load_back_are_rejected(node_id):
    graph = KnowledgeGraph()
    with pytest.raises(GraphTypeError):
        graph.add_individual(node_id, "Carrier")
    assert not graph.individuals


@pytest.mark.parametrize("key", ["", "a=b", "a b", "x\ry", "tab\there", "nl\n"])
def test_attribute_keys_that_would_not_load_back_are_rejected(key):
    graph = KnowledgeGraph()
    with pytest.raises(GraphTypeError, match="attribute key"):
        graph.add_individual("port_a", "Port", name="A", **{key: "c"})
    assert not graph.individuals
    # nothing of the refused individual was kept
    graph.add_individual("port_a", "Port", country="XX")
    assert graph.attrs("port_a") == {"country": "XX"}


@pytest.mark.parametrize("name", ["", "Gate Inn", "x\ry", "tab\there", "nl\n"])
def test_concept_names_that_would_not_load_back_are_rejected(name):
    graph = KnowledgeGraph()
    with pytest.raises(GraphTypeError):
        graph.add_concept(name, "TripStart")
    assert graph.taxonomy.resolve(name) is None


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


def test_save_refuses_an_unsealed_graph(tmp_path):
    graph = KnowledgeGraph()
    graph.add_individual("port_a_xx", "Port", name="A", country="XX")
    with pytest.raises(SealedGraphError):
        graph.save(str(tmp_path / "g.kb"))
    assert os.listdir(tmp_path) == []


def _all_in_memory_save_text(graph: KnowledgeGraph) -> str:
    """The saved form as one sorted list of records: the concepts, the
    individual records in id order, then every edge tuple sorted."""
    lines = [HEADER + " %d %d %d" % (
        len(graph._extra_concepts), len(graph.individuals), graph.edge_count()
    )]
    lines += ["concept %s %s" % c for c in sorted(graph._extra_concepts)]
    for node_id in sorted(graph.individuals):
        lines.append(" ".join(
            ["individual", node_id, graph.concept_of(node_id)]
            + ["%s=%s" % (k, quote(v, safe="")) for k, v in sorted(graph.attrs(node_id).items())]
        ))
    edges = sorted(
        (subject, name, obj)
        for name, role in graph.roles.items()
        if role.alias_of is None
        for subject, obj in graph.role_pairs(name)
    )
    lines += ["edge %s %s %s" % t for t in edges]
    return "\n".join(lines) + "\n"


# ids such as ce_1, ce_1_2 and ce_12, some prefixes of others
_PREFIX_IDS = st.lists(
    st.text(alphabet="12_", min_size=1, max_size=5).map(lambda t: "ce_" + t),
    unique=True,
    max_size=12,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32), _PREFIX_IDS)
def test_save_writes_the_sorted_records_and_reloads_byte_identical(seed, extra_ids):
    graph = build_random_graph(random.Random(seed), seal=False)
    graph.add_concept("StuffedAtDepot", "TripStart")
    previous = None
    for node in extra_ids:
        # chained in list order, so each bucket holds its objects unsorted
        graph.add_individual(node, "StuffedAtDepot", label=node)
        graph.add_edge("ci_rnd_000", "hasContainerEvent", node)
        graph.add_edge(node, "hasLocation", "port_p0_xx")
        if previous is not None:
            graph.add_edge(previous, "hasNextEvent", node)
            graph.add_edge(node, "hasNextEvent", previous)
        previous = node
    graph.seal()
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.kb"), os.path.join(tmp, "b.kb")
        graph.save(first)
        with open(first, "rb") as fh:
            saved = fh.read()
        assert saved == _all_in_memory_save_text(graph).encode("utf-8")
        KnowledgeGraph.load(first).save(second)
        with open(second, "rb") as fh:
            assert fh.read() == saved


def _anchor_sweep_graph() -> KnowledgeGraph:
    """The graph of the chain benchmark's anchor-sweep dataset, at seed 42."""
    records, _ = generate(
        GenConfig(seed=42, itinerary_count=300, port_count=300, vessel_count=300,
                  transshipment_rate=0.5, injected_loops=5, injected_unnecessary=5)
    )
    return run_pipeline(records).graph


def test_save_memory_does_not_grow_with_the_file(tmp_path):
    graph = _anchor_sweep_graph()
    path = tmp_path / "g.kb"
    tracemalloc.start()
    try:
        graph.save(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 1 << 20
    assert peak < size, "save's traced peak %d B exceeds the file's %d B" % (peak, size)


# prints the bytes a loaded graph holds, traced, and its individuals + edges
_MEASURE_LOAD = """
import sys, tracemalloc
from cargokg.graph import KnowledgeGraph
tracemalloc.start()
graph = KnowledgeGraph.load(sys.argv[1])
print(tracemalloc.get_traced_memory()[0], len(graph.individuals) + graph.edge_count())
"""


def test_a_loaded_graph_takes_at_most_150_bytes_per_record(tmp_path):
    path = str(tmp_path / "g.kb")
    _anchor_sweep_graph().save(path)
    # a fresh interpreter: the load shares no interned id with a built graph,
    # and the interned-string table's growth is the load's own, whatever
    # ran before in this process
    src = os.path.dirname(os.path.dirname(cargokg.__file__))
    measured = subprocess.run(
        [sys.executable, "-c", _MEASURE_LOAD, path],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    held, records = map(int, measured.stdout.split())
    assert records > 10_000
    assert held <= 150 * records, "%.1f B per individual + edge" % (held / records)


def test_attr_escaping_roundtrip(tmp_path):
    graph = KnowledgeGraph()
    graph.add_individual("port_x", "Port", name="Port Kelang = special", country="MY")
    graph.seal()
    path = str(tmp_path / "g.kb")
    graph.save(path)
    loaded = KnowledgeGraph.load(path)
    assert loaded.attr("port_x", "name") == "Port Kelang = special"


_ANY_CHARACTER = st.one_of(
    st.sampled_from(string.printable), st.characters(), st.characters(categories=["Cs"])
)
_UNQUOTED_TEXT = st.text(alphabet=string.ascii_letters + string.digits + "_.~-")
# arbitrary text, lone surrogates included; text that quote leaves alone; and
# such text with one arbitrary character inside
_ATTR_VALUES = st.one_of(
    st.text(_ANY_CHARACTER),
    _UNQUOTED_TEXT,
    st.tuples(_UNQUOTED_TEXT, _ANY_CHARACTER, _UNQUOTED_TEXT).map("".join),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ATTR_VALUES)
def test_saved_attribute_values_are_quoted_as_quote_would(value):
    columns = [("country", {"port_x": "XX"}), ("name", {"port_x": value})]
    try:
        expected = "individual port_x Port country=XX name=%s\n" % quote(value, safe="")
    except UnicodeEncodeError as err:
        with pytest.raises(UnicodeEncodeError) as raised:
            _individual_record("port_x", "Port", columns)
        assert str(raised.value) == str(err)
    else:
        assert _individual_record("port_x", "Port", columns) == expected


def test_each_ascii_character_is_quoted_as_quote_would():
    for code in range(128):
        value = "a%sb" % chr(code)
        record = _individual_record("port_x", "Port", [("name", {"port_x": value})])
        assert record == "individual port_x Port name=%s\n" % quote(value, safe=""), code


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
    "3001,FIGU0000514,2010-05-01,Received at Origin,Victoria,SC,Empty,",
    "3002,FIGU0000514,2010-05-02,Gate In,Victoria,SC,Full,",
    "3003,FIGU0000514,2010-05-03,Loaded,Victoria,SC,Full,Vessel1",
    "3004,FIGU0000514,2010-05-09,Discharged,Victoria,CA,Full,Vessel1",
    "3005,FIGU0000514,2010-05-09,Final Destination,Victoria,CA,Full,",
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
    for role in (name for name, role in graph.roles.items() if role.alias_of is None):
        for direction in ("out", "in"):
            assert graph.adjacency(role, direction) == loaded.adjacency(role, direction), (
                role,
                direction,
            )


def test_reverse_index_is_built_only_when_read(tmp_path, vocab):
    graph, itineraries = _table3_graph(vocab)
    path = str(tmp_path / "g.kb")
    graph.save(path)
    loaded = KnowledgeGraph.load(path)
    for g in (graph, loaded):
        assert g._in == {}
        g.objects(itinerary_node(itineraries[0].itinerary_id), "hasContainerEvent")
        list(g.role_pairs("hasLocation"))
        assert g._in == {}

    assert loaded.subjects("port_shangai_cn", "hasLocation")
    assert set(loaded._in) == {"hasLocation"}
    assert loaded.adjacency("hasLocation", "in") is loaded.adjacency("hasLocation", "in")
    assert set(loaded._in) == {"hasLocation"}

    last = graph.objects(itinerary_node(itineraries[0].itinerary_id), "hasContainerEvent")[-1]
    assert graph.transitive_predecessors(last, "hasNextEvent")
    assert set(graph._in) == {"hasNextEvent"}


def _brute_force_reverse(graph, role):
    reverse = {}
    for subject, obj in graph.role_pairs(role):
        reverse.setdefault(obj, []).append(subject)
    return {obj: tuple(sorted(subjects)) for obj, subjects in reverse.items()}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2**32), _PREFIX_IDS)
def test_reverse_index_is_the_reverse_of_the_role_pairs(seed, extra_ids):
    graph = build_random_graph(random.Random(seed), seal=False)
    graph.add_concept("StuffedAtDepot", "TripStart")
    for node in reversed(extra_ids):
        # declared in no id order, so a port's subjects may arrive unsorted
        graph.add_individual(node, "StuffedAtDepot", label=node)
        graph.add_edge(node, "hasLocation", "port_p0_xx")
    graph.seal()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.kb")
        graph.save(path)
        loaded = KnowledgeGraph.load(path)
    stored = [name for name, role in graph.roles.items() if role.alias_of is None]
    for g in (graph, loaded):
        for role in stored:
            assert g.adjacency(role, "in") == _brute_force_reverse(g, role), role
