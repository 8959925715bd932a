import random
from datetime import date, timedelta

from cargokg.events import LoadingStatus
from cargokg.segmentation import (
    Completeness,
    event_from_record,
    read_itineraries,
    segment_container_sequence,
    write_itineraries,
)

from helpers import ANTWERPEN, PORT_KELANG, SHANGAI, read_csm_rows, table3_itineraries


def _events(lines, vocab):
    return [event_from_record(r, vocab) for r in read_csm_rows(lines)]


def test_table3_two_itineraries(vocab):
    itineraries = table3_itineraries(vocab)
    assert len(itineraries) == 2
    first, second = itineraries

    assert first.source_port == SHANGAI
    assert first.destination_port == ANTWERPEN
    assert first.start_time == date(2010, 5, 27)
    assert first.end_time == date(2010, 7, 16)
    assert first.completeness is Completeness.COMPLETE
    assert len(first.events) == 8
    pairs = first.transshipments()
    assert len(pairs) == 1
    assert pairs[0][0].location == PORT_KELANG
    assert pairs[0][0].ref_event.leaf == "TransshipmentDischarge"
    assert pairs[0][1].ref_event.leaf == "TransshipmentLoad"

    assert second.source_port == ANTWERPEN
    assert second.start_time == date(2010, 8, 20)
    assert second.completeness is Completeness.PARTIAL_TAIL
    assert len(second.events) == 3
    assert second.destination_port is None


def test_table3_vessel_propagation(vocab):
    first = table3_itineraries(vocab)[0]
    discharge_pk = first.events[3]
    assert discharge_pk.discharging_vessel == "Aurora"
    assert discharge_pk.vessel_inferred is True
    discharge_aw = first.events[5]
    assert discharge_aw.discharging_vessel == "Dawn"
    export_load = first.events[2]
    assert export_load.ref_event.leaf == "LoadedToVessel"  # not a transshipment


def test_empty_sequence(vocab):
    assert segment_container_sequence([]) == []


def test_status_flip_without_trip_end(vocab):
    lines = [
        "1,ABCD1234560,2011-01-02,Gate In,A,XX,Full,",
        "2,ABCD1234560,2011-01-03,Loaded,A,XX,Full,V1",
        "3,ABCD1234560,2011-01-06,Discharged,B,XX,Full,",
        "4,ABCD1234560,2011-01-09,Mystery Move,B,XX,Empty,",
        "5,ABCD1234560,2011-02-01,Loaded,B,XX,Full,V2",
        "6,ABCD1234560,2011-02-04,Discharged,C,XX,Full,",
    ]
    itineraries = segment_container_sequence(_events(lines, vocab))
    assert len(itineraries) == 2
    assert [e.event_id for e in itineraries[0].events] == ["1", "2", "3", "4"]
    assert [e.event_id for e in itineraries[1].events] == ["5", "6"]


def test_status_flip_pulls_trip_start_forward(vocab):
    # a ReceivedAtOrigin (Empty) right before the flip opens the new shipment
    lines = [
        "1,ABCD1234560,2011-01-02,Loaded,A,XX,Full,V1",
        "2,ABCD1234560,2011-01-06,Discharged,B,XX,Full,",
        "3,ABCD1234560,2011-01-20,Received at Origin,B,XX,Empty,",
        "4,ABCD1234560,2011-01-21,Gate In,B,XX,Full,",
        "5,ABCD1234560,2011-01-22,Loaded,B,XX,Full,V2",
    ]
    itineraries = segment_container_sequence(_events(lines, vocab))
    assert len(itineraries) == 2
    assert [e.event_id for e in itineraries[0].events] == ["1", "2"]
    assert [e.event_id for e in itineraries[1].events] == ["3", "4", "5"]


def test_leading_empty_is_not_a_boundary(vocab):
    # the Table 3 Empty->Full flip at the head must not split
    itineraries = table3_itineraries(vocab)
    assert len(itineraries[0].events) == 8


def test_same_day_boundary_assignment(vocab):
    lines = [
        "1,ABCD1234560,2011-01-02,Gate In,A,XX,Full,",
        "2,ABCD1234560,2011-01-03,Loaded,A,XX,Full,V1",
        "3,ABCD1234560,2011-01-06,Discharged,B,XX,Full,",
        "4,ABCD1234560,2011-01-08,Final Destination,B,XX,Full,",
        "5,ABCD1234560,2011-01-08,Received at Origin,B,XX,Empty,",
        "6,ABCD1234560,2011-01-09,Gate In,B,XX,Full,",
    ]
    itineraries = segment_container_sequence(_events(lines, vocab))
    assert len(itineraries) == 2
    assert itineraries[0].events[-1].ref_event.leaf == "FinalDestination"
    assert itineraries[1].events[0].ref_event.leaf == "ReceivedAtOrigin"


def test_single_event_partial_head(vocab):
    lines = ["1,ABCD1234560,2011-01-02,Discharged,A,XX,Full,"]
    itineraries = segment_container_sequence(_events(lines, vocab))
    assert len(itineraries) == 1
    assert itineraries[0].completeness is Completeness.PARTIAL_HEAD


def test_merged_suspect_label(vocab):
    lines = [
        "1,ABCD1234560,2011-01-02,Gate In,A,XX,Full,",
        "2,ABCD1234560,2011-01-03,Loaded,A,XX,Full,V1",
        "3,ABCD1234560,2011-01-06,Final Destination,B,XX,Full,",
        "4,ABCD1234560,2011-01-09,Loaded,B,XX,Full,V2",
        "5,ABCD1234560,2011-01-12,Discharged,C,XX,Full,",
    ]
    itineraries = segment_container_sequence(_events(lines, vocab))
    assert len(itineraries) == 1
    assert itineraries[0].completeness is Completeness.MERGED_SUSPECT


def _random_stream(rng, vocab, n_events):
    phrases = [
        ("Received at Origin", LoadingStatus.EMPTY),
        ("Gate In", LoadingStatus.FULL),
        ("Loaded", LoadingStatus.FULL),
        ("Discharged", LoadingStatus.FULL),
        ("Gate Out", LoadingStatus.FULL),
        ("Final Destination", LoadingStatus.FULL),
        ("Empty Returned", LoadingStatus.EMPTY),
        ("weird deed", LoadingStatus.FULL),
    ]
    lines = []
    day = 0
    for i in range(n_events):
        phrase, status = rng.choice(phrases)
        day += rng.randrange(0, 4)
        port = rng.choice("ABCD")
        vessel = "V%d" % rng.randrange(3) if phrase == "Loaded" else None
        lines.append(
            "%d,ABCD1234560,%s,%s,%s,XX,%s,%s"
            % (
                i + 1,
                date(2011, 1, 1) + timedelta(days=day),
                phrase,
                port,
                status.value,
                vessel or "",
            )
        )
    return _events(lines, vocab)


def test_partition_property(vocab):
    rng = random.Random(13)
    for _ in range(50):
        events = _random_stream(rng, vocab, rng.randrange(0, 25))
        itineraries = segment_container_sequence(events)
        regrouped = [e.event_id for it in itineraries for e in it.events]
        assert regrouped == [e.event_id for e in events]
        for it in itineraries:
            times = [e.time for e in it.events]
            assert times == sorted(times)


def test_idempotence(vocab):
    rng = random.Random(29)
    for _ in range(30):
        events = _random_stream(rng, vocab, rng.randrange(1, 25))
        for it in segment_container_sequence(events):
            again = segment_container_sequence(it.events)
            assert len(again) == 1
            redo = again[0]
            assert [e.event_id for e in redo.events] == [e.event_id for e in it.events]
            assert redo.completeness == it.completeness
            assert redo.source_port == it.source_port
            assert redo.destination_port == it.destination_port


def test_transshipment_pair_count_invariant(vocab):
    rng = random.Random(31)
    for _ in range(40):
        events = _random_stream(rng, vocab, rng.randrange(1, 30))
        for it in segment_container_sequence(events):
            expected = sum(
                1
                for a, b in zip(it.events, it.events[1:])
                if a.is_discharge and b.is_load and a.location == b.location
            )
            assert len(it.transshipments()) == expected


def test_stage_dump_roundtrip(tmp_path, vocab):
    itineraries = table3_itineraries(vocab)
    ipath, epath = str(tmp_path / "itins.jsonl"), str(tmp_path / "events.jsonl")
    write_itineraries(ipath, epath, itineraries)
    back = read_itineraries(ipath, epath)
    assert back == itineraries
