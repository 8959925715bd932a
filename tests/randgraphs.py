"""Random schema-shaped graphs and random queries for oracle comparison."""

from datetime import date, timedelta

from cargokg.graph import KnowledgeGraph, timestamp_node
from cargokg.events import timestamp_literal
from cargokg.queries import (
    Const,
    DateCompare,
    PatternQuery,
    RoleAtom,
    SubclassAtom,
    SubstringBind,
    TypeAtom,
    Var,
    atom_ends,
)

_EVENT_LEAVES = [
    "ReceivedAtOrigin",
    "GateIn",
    "LoadedToVessel",
    "DischargedAtPort",
    "TransshipmentLoad",
    "TransshipmentDischarge",
    "GateOut",
    "FinalDestination",
    "Unknown",
]


def build_random_graph(rng, max_individuals=200, plant_patterns=True, seal=True):
    """A small typed graph with itineraries, vessel chains and bindings.

    With ``plant_patterns`` a deliberate loop-shaped and an unnecessary-
    transshipment-shaped wiring are embedded so the anomaly queries have
    non-empty answers on roughly half the corpus. Without ``seal`` the graph
    is returned unsealed, for a caller to extend.
    """
    g = KnowledgeGraph()
    n_ports = rng.randrange(3, 7)
    n_vessels = rng.randrange(2, 5)
    n_conts = rng.randrange(2, 5)

    ports = []
    for i in range(n_ports):
        node = "port_p%d_xx" % i
        g.add_individual(node, "Port", name="P%d" % i, country="XX")
        ports.append(node)
    base = date(2012, 1, 1)
    stamps = []
    for i in range(40):
        d = base + timedelta(days=i)
        node = timestamp_node(d)
        g.add_individual(node, "Timestamp", value=timestamp_literal(d))
        stamps.append(node)
    vessels = []
    for i in range(n_vessels):
        node = "ves_v%d" % i
        g.add_individual(node, "Vessel", label="V%d" % i)
        vessels.append(node)
    g.add_individual("car_rnd", "Carrier", label="RND")
    containers = []
    for i in range(n_conts):
        node = "cont_c%d" % i
        g.add_individual(node, "Container", label="C%d" % i)
        g.add_edge(node, "belongsTo", "car_rnd")
        containers.append(node)

    # vessel chains: per vessel, alternate arrivals/departures on a day walk
    vessel_chain = {}
    for vi, vessel in enumerate(vessels):
        chain = []
        day = rng.randrange(0, 6)
        for ci in range(rng.randrange(2, 8)):
            kind = "Arrival" if ci % 2 == 0 else "Departure"
            node = "ve_v%d_%05d" % (vi, ci)
            g.add_individual(node, kind)
            g.add_edge(node, "hasMO", vessel)
            g.add_edge(node, "hasLocation", rng.choice(ports))
            g.add_edge(node, "hasTimestamp", stamps[min(day, len(stamps) - 1)])
            if chain:
                g.add_edge(chain[-1], "hasNextEvent", node)
            chain.append(node)
            day += rng.randrange(0, 3)
        vessel_chain[vessel] = chain

    event_seq = 0
    itineraries = []
    for ii in range(rng.randrange(1, 4)):
        ci = "ci_rnd_%03d" % ii
        g.add_individual(ci, "ContainerItinerary", label="rnd-%03d" % ii,
                         completeness="Complete")
        g.add_edge(ci, "hasMO", rng.choice(containers))
        g.add_edge(ci, "hasCISourcePort", rng.choice(ports))
        g.add_edge(ci, "hasCIDestinationPort", rng.choice(ports))
        g.add_edge(ci, "hasEndTime", rng.choice(stamps))
        previous = None
        for ei in range(rng.randrange(2, 6)):
            node = "ce_rnd_%05d" % event_seq
            event_seq += 1
            g.add_individual(node, rng.choice(_EVENT_LEAVES), label=node)
            g.add_edge(ci, "hasContainerEvent", node)
            g.add_edge(node, "hasMO", rng.choice(containers))
            g.add_edge(node, "hasLocation", rng.choice(ports))
            g.add_edge(node, "hasTimestamp", rng.choice(stamps))
            if rng.random() < 0.4:
                vessel = rng.choice(vessels)
                chain = vessel_chain[vessel]
                role = rng.choice(
                    [
                        ("hasLoadingVessel", vessel),
                        ("hasDischargingVessel", vessel),
                        ("hasLoadingVesselEvent", rng.choice(chain)),
                        ("hasDischargingVesselEvent", rng.choice(chain)),
                    ]
                )
                g.add_edge(node, role[0], role[1])
            if previous is not None:
                g.add_edge(previous, "hasNextEvent", node)
            previous = node
        itineraries.append(ci)

    if plant_patterns and rng.random() < 0.6 and len(ports) >= 3:
        # a loop-shaped itinerary: ts load bound to a vessel departure whose
        # chain revisits the source and later carries the discharge arrival
        src, mid, dst = rng.sample(ports, 3)
        ci = "ci_planted_loop"
        g.add_individual(ci, "ContainerItinerary", label="planted-loop",
                         completeness="Complete")
        g.add_edge(ci, "hasMO", containers[0])
        g.add_edge(ci, "hasCISourcePort", src)
        g.add_edge(ci, "hasCIDestinationPort", dst)
        g.add_edge(ci, "hasEndTime", stamps[20])
        tload = "ce_planted_load"
        g.add_individual(tload, "TransshipmentLoad", label=tload)
        g.add_edge(ci, "hasContainerEvent", tload)
        g.add_edge(tload, "hasLocation", mid)
        g.add_edge(tload, "hasTimestamp", stamps[10])
        tdis = "ce_planted_discharge"
        g.add_individual(tdis, "DischargedAtPort", label=tdis)
        g.add_edge(ci, "hasContainerEvent", tdis)
        g.add_edge(tdis, "hasLocation", dst)
        g.add_edge(tdis, "hasTimestamp", stamps[19])
        chain_ports = [mid, src, dst]
        chain_days = [10, 15, 19]
        previous = None
        for k, (port, day) in enumerate(zip(chain_ports, chain_days)):
            node = "ve_planted_%05d" % k
            g.add_individual(node, "Departure" if k == 0 else "Arrival")
            g.add_edge(node, "hasMO", vessels[0])
            g.add_edge(node, "hasLocation", port)
            g.add_edge(node, "hasTimestamp", stamps[day])
            if previous is not None:
                g.add_edge(previous, "hasNextEvent", node)
            previous = node
        g.add_edge(tload, "hasLoadingVesselEvent", "ve_planted_00000")
        g.add_edge(tdis, "hasDischargingVesselEvent", "ve_planted_00002")

    if seal:
        g.seal()
    return g


_ROLES = [
    "hasMO",
    "hasLocation",
    "hasTimestamp",
    "hasNextEvent",
    "hasNextVesselEvent",
    "hasVPort",
    "hasContainerEvent",
    "hasCISourcePort",
    "hasCIDestinationPort",
    "hasLoadingVessel",
    "hasLoadingVesselEvent",
    "hasDischargingVesselEvent",
]

_CONCEPTS = [
    "Container_itinerary",
    "Transshipment_Event",
    "VesselEvent",
    "Port",
    "Event",
    "TripEnd",
]


def build_random_query(rng, graph, max_atoms=6):
    """A connected random query over the schema, sometimes with nominals,
    class variables, binds and a filter."""
    n_atoms = rng.randrange(1, max_atoms + 1)
    atoms = []
    var_count = 0

    def fresh():
        nonlocal var_count
        var_count += 1
        return Var("x%d" % var_count)

    live_vars = [fresh()]
    atoms.append(TypeAtom(live_vars[0], Const(rng.choice(_CONCEPTS))))
    while len(atoms) < n_atoms:
        anchor = rng.choice(live_vars)
        choice = rng.random()
        if choice < 0.15:
            cls = fresh()
            atoms.append(TypeAtom(anchor, cls))
            atoms.append(SubclassAtom(cls, Const(rng.choice(_CONCEPTS))))
            live_vars.append(cls)
        elif choice < 0.3 and graph.individuals:
            nominal = Const(rng.choice(sorted(graph.individuals)))
            role = rng.choice(_ROLES)
            if rng.random() < 0.5:
                atoms.append(RoleAtom(anchor, role, nominal))
            else:
                atoms.append(RoleAtom(nominal, role, anchor))
        else:
            other = fresh()
            role = rng.choice(_ROLES)
            if rng.random() < 0.5:
                atoms.append(RoleAtom(anchor, role, other))
            else:
                atoms.append(RoleAtom(other, role, anchor))
            live_vars.append(other)
    atoms = atoms[:n_atoms] if len(atoms) > n_atoms else atoms

    names = []
    for atom in atoms:
        for term in atom_ends(atom):
            if isinstance(term, Var) and term.name not in names:
                names.append(term.name)
    binds = []
    filters = []
    if names and rng.random() < 0.4:
        src = rng.choice(names)
        binds.append(SubstringBind(src, 5, 10, "b1"))
        if rng.random() < 0.6:
            binds.append(SubstringBind(rng.choice(names), 5, 10, "b2"))
            filters.append(
                DateCompare("b1", rng.choice(["<", ">", "<=", ">=", "="]), "b2")
            )
    pool = names + [b.target for b in binds]
    projection = rng.sample(pool, k=min(len(pool), rng.randrange(1, 4)))
    return PatternQuery(projection, rng.random() < 0.7, atoms, binds, filters)
