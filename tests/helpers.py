"""Shared builders: the 11-row carrier sample and the two anomaly scenarios.

The scenario builders construct the container side from raw CSV rows through
the real pipeline (read, classify, segment) and wire the vessel side by hand
so tests control the routing exactly.
"""

import os
import tempfile
from datetime import date, timedelta

from cargokg.events import CSM_CSV_COLUMNS, Location, read_csm_csv
from cargokg.graph import populate
from cargokg.linking import VesselEventIndex, bind_transshipments
from cargokg.segmentation import events_from_records, segment_container_sequence
from cargokg.vessels import VesselEvent, VesselEventKind, build_vessel_trips

# the paper's Table 3, as CSM CSV rows without the header
TABLE3_LINES = [
    "12345,ABCD1234567,27 May 2010,Received at Origin,Shangai,CN,Empty,",
    "12346,ABCD1234567,27 May 2010,Gate In,Shangai,CN,Full,",
    "12350,ABCD1234567,30 May 2010,Loaded/Ramped,Shangai,CN,Full,Aurora",
    "12365,ABCD1234567,15 Jun 2010,Discharged/Deramped,Port Kelang,MY,Full,",
    "12366,ABCD1234567,17 Jun 2010,Loaded/Ramped,Port Kelang,MY,Full,Dawn",
    "12381,ABCD1234567,03 Jul 2010,Discharged/Deramped,Antwerpen,BE,Full,",
    "12399,ABCD1234567,09 Jul 2010,Gate Out,Antwerpen,BE,Full,",
    "12455,ABCD1234567,16 Jul 2010,Final Destination,Antwerpen,BE,Full,",
    "12484,ABCD1234567,20 Aug 2010,Received at Origin,Antwerpen,BE,Empty,",
    "12545,ABCD1234567,23 Aug 2010,Gate In,Antwerpen,BE,Full,",
    "12555,ABCD1234567,24 Aug 2010,Loaded/Ramped,Antwerpen,BE,Full,Sun",
]

SHANGAI = Location("Shangai", "CN")
PORT_KELANG = Location("Port Kelang", "MY")
ANTWERPEN = Location("Antwerpen", "BE")


def read_csm_rows(rows):
    """The records of CSM CSV ``rows`` (no header), read by read_csm_csv."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "csm.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join([",".join(CSM_CSV_COLUMNS)] + list(rows)) + "\n")
        return read_csm_csv(path, on_error="abort")


def table3_records(vocab=None):
    return read_csm_rows(TABLE3_LINES)


def table3_itineraries(vocab):
    per_container = events_from_records(table3_records(), vocab)
    return segment_container_sequence(per_container["ABCD1234567"])


def _vessel_chain(vessel_id, calls):
    """calls: list of (port, arrive, depart_or_None). None means chain ends
    on the arrival (no witnessed departure)."""
    events = []
    seq = 0
    for port, arrive, depart in calls:
        events.append(
            VesselEvent(
                "ve_%s_%05d" % (vessel_id, seq),
                VesselEventKind.ARRIVAL,
                vessel_id,
                port,
                arrive,
            )
        )
        seq += 1
        if depart is not None:
            events.append(
                VesselEvent(
                    "ve_%s_%05d" % (vessel_id, seq),
                    VesselEventKind.DEPARTURE,
                    vessel_id,
                    port,
                    depart,
                )
            )
            seq += 1
    return events


def _scenario_graph(csm_lines, vessel_events, vocab):
    records = read_csm_rows(csm_lines)
    per_container = events_from_records(records, vocab)
    itineraries = []
    for container_id in sorted(per_container):
        itineraries.extend(segment_container_sequence(per_container[container_id]))
    index = VesselEventIndex(vessel_events)
    bindings = bind_transshipments(itineraries, index)
    by_vessel = {}
    for ve in vessel_events:
        by_vessel.setdefault(ve.vessel_id, []).append(ve)
    trips = []
    for vessel_id in sorted(by_vessel):
        trips.extend(build_vessel_trips(by_vessel[vessel_id]))
    graph = populate(itineraries, vessel_events, trips, bindings)
    return graph, itineraries


P1 = Location("P1", "XX")
P3 = Location("P3", "XX")
P4 = Location("P4", "XX")
PX = Location("PX", "XX")
P9 = Location("P9", "XX")

LOOP_CONTAINER_LINES = [
    "1001,FIGU0000514,2010-03-01,Received at Origin,P1,XX,Empty,",
    "1002,FIGU0000514,2010-03-02,Gate In,P1,XX,Full,",
    "1003,FIGU0000514,2010-03-03,Loaded,P1,XX,Full,Vessel1",
    "1004,FIGU0000514,2010-03-06,Discharged,P3,XX,Full,Vessel1",
    "1005,FIGU0000514,2010-03-08,Loaded,P3,XX,Full,Vessel2",
    "1006,FIGU0000514,2010-03-13,Discharged,PX,XX,Full,Vessel2",
    "1007,FIGU0000514,2010-03-13,Gate Out,PX,XX,Full,",
    "1008,FIGU0000514,2010-03-13,Final Destination,PX,XX,Full,",
]


def loop_scenario(vocab, loop_routing=True):
    """Container rides Vessel1 P1->P3, transships to Vessel2; with
    ``loop_routing`` Vessel2 swings back through P1 before reaching PX."""
    v1 = _vessel_chain(
        "vessel1",
        [
            (P1, date(2010, 3, 2), date(2010, 3, 3)),
            (P3, date(2010, 3, 6), date(2010, 3, 7)),
            (P9, date(2010, 3, 20), None),
        ],
    )
    if loop_routing:
        v2_calls = [
            (P3, date(2010, 3, 7), date(2010, 3, 8)),
            (P1, date(2010, 3, 12), date(2010, 3, 12)),
            (PX, date(2010, 3, 13), None),
        ]
    else:
        v2_calls = [
            (P3, date(2010, 3, 7), date(2010, 3, 8)),
            (PX, date(2010, 3, 13), None),
        ]
    v2 = _vessel_chain("vessel2", v2_calls)
    return _scenario_graph(LOOP_CONTAINER_LINES, v1 + v2, vocab)


UNNECESSARY_CONTAINER_LINES = [
    "2001,FIGU0000620,2010-04-01,Received at Origin,P1,XX,Empty,",
    "2002,FIGU0000620,2010-04-02,Gate In,P1,XX,Full,",
    "2003,FIGU0000620,2010-04-03,Loaded,P1,XX,Full,Vessel1",
    "2004,FIGU0000620,2010-04-06,Discharged,P3,XX,Full,Vessel1",
    "2005,FIGU0000620,2010-04-07,Loaded,P3,XX,Full,Vessel2",
    "2006,FIGU0000620,2010-04-10,Discharged,P4,XX,Full,Vessel2",
    "2007,FIGU0000620,2010-04-10,Gate Out,P4,XX,Full,",
    "2008,FIGU0000620,2010-04-10,Final Destination,P4,XX,Full,",
]


def unnecessary_scenario(vocab, original_vessel_reaches_destination=True, arrival_gap_days=1):
    """Container transships P3 from Vessel1 to Vessel2 and ends at P4; with
    the flag set, Vessel1 also reaches P4 ``arrival_gap_days`` after the
    container."""
    v1_calls = [
        (P1, date(2010, 4, 2), date(2010, 4, 3)),
        (P3, date(2010, 4, 6), date(2010, 4, 7)),
    ]
    if original_vessel_reaches_destination:
        v1_calls.append((P4, date(2010, 4, 10) + timedelta(days=arrival_gap_days), None))
    else:
        v1_calls.append((P9, date(2010, 4, 20), None))
    v1 = _vessel_chain("vessel1", v1_calls)
    v2 = _vessel_chain(
        "vessel2",
        [
            (P3, date(2010, 4, 6), date(2010, 4, 7)),
            (P4, date(2010, 4, 10), None),
        ],
    )
    return _scenario_graph(UNNECESSARY_CONTAINER_LINES, v1 + v2, vocab)
