import random
from datetime import date

import pytest

from cargokg.diagnostics import Diagnostics
from cargokg.events import (
    CsmParseError,
    Location,
    LoadingStatus,
    TopClass,
    VocabularyError,
    event_key,
    iso6346_check_digit,
    load_vocabulary,
    make_container_id,
    normalize_phrase,
    parse_event_date,
    read_csm_csv,
    timestamp_literal,
    validate_container_id,
    write_csm_csv,
)

from helpers import read_csm_rows, table3_records

HEADER = "csm_id,container_id,date,event,location,country,loading_status,vessel\n"


def test_parse_row_with_vessel():
    [rec] = read_csm_rows(["12350,ABCD1234567,30 May 2010,Loaded/Ramped,Shangai,CN,Full,Aurora"])
    assert rec.csm_id == "12350"
    assert rec.container_id == "ABCD1234567"
    assert rec.time == date(2010, 5, 30)
    assert rec.location == Location("Shangai", "CN")
    assert rec.loading_status is LoadingStatus.FULL
    assert rec.vessel_name == "Aurora"


def test_parse_row_without_vessel():
    # an empty vessel column or "--" in its place
    for vessel in ("", "--"):
        [rec] = read_csm_rows(
            ["12345,ABCD1234567,27 May 2010,Received at Origin,Shangai,CN,Empty," + vessel]
        )
        assert rec.vessel_name is None
        assert rec.loading_status is LoadingStatus.EMPTY


def test_parse_field_count_mismatch_names_row():
    with pytest.raises(CsmParseError) as err:
        read_csm_rows(["12345,ABCD1234567,27 May 2010,Gate In,Shangai,CN,Full"])
    assert "12345" in str(err.value)
    assert "8 fields" in str(err.value)


def test_parse_malformed_date():
    with pytest.raises(CsmParseError) as err:
        read_csm_rows(["77,ABCD1234560,30 Smarch 2010,Gate In,Shangai,CN,Full,"])
    assert "date" in str(err.value)


def test_check_digit_diagnostic_vs_strict(tmp_path):
    path = tmp_path / "csm.csv"
    path.write_text(HEADER + "12346,ABCD1234567,27 May 2010,Gate In,Shangai,CN,Full,\n")
    diag = Diagnostics()
    read_csm_csv(str(path), diagnostics=diag)
    assert diag.count("bad_check_digit") == 1
    with pytest.raises(CsmParseError):
        read_csm_csv(str(path), strict_check_digit=True, on_error="abort")


def test_loading_status_is_empty_or_full():
    rows = [
        "1,ABCD1234560,2010-01-01,Gate In,Shangai,CN,EMPTY,",
        "2,ABCD1234560,2010-01-01,Gate In,Shangai,CN, full ,",
    ]
    statuses = [r.loading_status for r in read_csm_rows(rows)]
    assert statuses == [LoadingStatus.EMPTY, LoadingStatus.FULL]
    with pytest.raises(CsmParseError, match="row 3: unknown loading status 'Half'"):
        read_csm_rows(["3,ABCD1234560,2010-01-01,Gate In,Shangai,CN,Half,"])


def test_iso6346_shapes_and_digits():
    assert validate_container_id("ABCD1234560") == (True, True)
    assert validate_container_id("ABCD1234567") == (True, False)
    assert validate_container_id("AB123456789") == (False, False)
    made = make_container_id("MAE", 7)
    assert validate_container_id(made) == (True, True)
    assert made.startswith("MAEU000007")


def test_date_formats():
    assert parse_event_date("03 Jul 2010") == date(2010, 7, 3)
    assert parse_event_date("2010-07-03") == date(2010, 7, 3)
    with pytest.raises(ValueError):
        parse_event_date("July 3rd")


def test_timestamp_literal_substring_offset():
    lit = timestamp_literal(date(2010, 7, 16))
    assert lit == "Fri 2010-07-16"
    assert lit[4:14] == "2010-07-16"


def test_location_and_country_columns():
    rows = [
        "1,ABCD1234560,2010-01-01,Gate In, Port Kelang ,my,Full,",
        "2,ABCD1234560,2010-01-01,Gate In,Inland Depot,,Full,",
    ]
    assert [r.location for r in read_csm_rows(rows)] == [
        Location("Port Kelang", "MY"),
        Location("Inland Depot", ""),
    ]


def test_classify_examples(vocab):
    assert vocab.classify("Loaded/Ramped").leaf == "LoadedToVessel"
    assert (
        vocab.classify("Loaded/Ramped").top_class
        is TopClass.MARITIME_TRANSSHIPMENT
    )
    assert vocab.classify("Final Destination").leaf == "FinalDestination"
    assert vocab.classify("Final Destination").top_class is TopClass.TRIP_END
    unknown = vocab.classify("frobnicated at depot")
    assert unknown.leaf == "Unknown"
    assert unknown.top_class is TopClass.OTHER
    assert vocab.unmapped["frobnicated at depot"] == 1


def test_classify_is_total_and_normalized(vocab):
    rng = random.Random(7)
    phrases = ["Loaded/Ramped", "gate in", "FINAL DESTINATION", "odd phrase", ""]
    for phrase in phrases:
        spaced = "  " + phrase.upper() + "   "
        assert vocab.classify(phrase) == vocab.classify(spaced)
    for _ in range(200):
        text = "".join(rng.choice("abc XYZ/-") for _ in range(rng.randrange(0, 12)))
        ev = vocab.classify(text)
        assert ev.leaf in vocab.leaves
        assert vocab.classify(normalize_phrase(text)) == ev


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "csm.csv"
    records = table3_records()
    write_csm_csv(str(path), records)
    back = read_csm_csv(str(path))
    assert back == records


def test_csv_skip_vs_abort(tmp_path):
    path = tmp_path / "csm.csv"
    path.write_text(
        "csm_id,container_id,date,event,location,country,loading_status,vessel\n"
        "1,ABCD1234560,2010-01-01,Gate In,Shangai,CN,Full,\n"
        "2,ABCD1234560,garbage,Gate In,Shangai,CN,Full,\n"
    )
    diag = Diagnostics()
    records = read_csm_csv(str(path), diagnostics=diag)
    assert [r.csm_id for r in records] == ["1"]
    assert diag.count("skipped_row") == 1
    with pytest.raises(CsmParseError):
        read_csm_csv(str(path), on_error="abort")


def test_a_repeated_csm_id_is_a_bad_row(tmp_path):
    path = tmp_path / "csm.csv"
    path.write_text(
        HEADER
        + "10000001,ABCU1234560,2010-05-27,Received at Origin,Shangai,CN,Empty,\n"
        + "10000002,ABCU1234560,2010-05-30,Loaded/Ramped,Shangai,CN,Full,Aurora\n"
        + "10000002,ABCU1234560,2010-06-20,Discharged/Deramped,Rotterdam,NL,Full,\n"
        + "10000003,ABCU1234560,2010-06-21,Gate Out,Rotterdam,NL,Full,\n"
    )
    diag = Diagnostics()
    records = read_csm_csv(str(path), diagnostics=diag)
    # the first occurrence wins
    assert [(r.csm_id, r.location.name) for r in records] == [
        ("10000001", "Shangai"),
        ("10000002", "Shangai"),
        ("10000003", "Rotterdam"),
    ]
    assert diag.records == [("skipped_row", "row 10000002: csm_id repeats an earlier row")]
    with pytest.raises(CsmParseError, match="row 10000002: csm_id repeats an earlier row"):
        read_csm_csv(str(path), on_error="abort")


def test_csm_ids_with_one_event_key_are_a_bad_row(tmp_path):
    path = tmp_path / "csm.csv"
    path.write_text(
        HEADER
        + "A-1,ABCU1234560,2010-05-27,Gate In,Shangai,CN,Full,\n"
        + "a_1,ABCU1234560,2010-05-30,Loaded/Ramped,Shangai,CN,Full,Aurora\n"
        + "A-1,ABCU1234560,2010-06-20,Discharged/Deramped,Rotterdam,NL,Full,\n"
    )
    assert event_key("A-1") == event_key("a_1") == "a_1"
    diag = Diagnostics()
    records = read_csm_csv(str(path), diagnostics=diag)
    assert [r.csm_id for r in records] == ["A-1"]
    assert diag.records == [
        ("skipped_row", "row a_1: csm_id and the earlier row's A-1 have one event key, a_1"),
        ("skipped_row", "row A-1: csm_id repeats an earlier row"),
    ]
    with pytest.raises(CsmParseError, match="row a_1: csm_id and the earlier row's A-1"):
        read_csm_csv(str(path), on_error="abort")


def test_a_row_may_reuse_the_csm_id_of_a_skipped_row(tmp_path):
    path = tmp_path / "csm.csv"
    path.write_text(
        HEADER
        + "7,ABCU1234560,garbage,Gate In,Shangai,CN,Full,\n"
        + "7,ABCU1234560,2010-05-27,Gate In,Shangai,CN,Full,\n"
    )
    diag = Diagnostics()
    [rec] = read_csm_csv(str(path), diagnostics=diag)
    assert rec.time == date(2010, 5, 27)
    assert diag.count("skipped_row") == 1


def test_csv_rows_are_numbered_by_the_physical_line_they_start_on(tmp_path):
    path = tmp_path / "csm.csv"
    path.write_text(
        "csm_id,container_id,date,event,location,country,loading_status,vessel\n"
        '1,ABCD1234560,2010-01-01,"Gate\nIn",Shangai,CN,Full,\n'
        ",ABCD1234560,bad-date,Gate In,Shangai,CN,Full,\n"
    )
    with pytest.raises(CsmParseError, match="row line 4: malformed date 'bad-date'"):
        read_csm_csv(str(path), on_error="abort")


def test_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(CsmParseError):
        read_csm_csv(str(path))


def test_vocabulary_file(tmp_path):
    path = tmp_path / "vocab.csv"
    path.write_text(
        "carrier_phrase,reference_leaf,top_class\n"
        "Vanning,StuffedAtDepot,TripStart\n"
        "LOAD FULL ONTO RAIL,RailLoad,Other\n"
    )
    vocab = load_vocabulary(str(path))
    assert vocab.classify("vanning").leaf == "StuffedAtDepot"
    assert vocab.classify("vanning").top_class is TopClass.TRIP_START
    assert vocab.classify("Loaded/Ramped").leaf == "LoadedToVessel"  # built-ins kept

    bad = tmp_path / "bad.csv"
    bad.write_text("carrier_phrase,reference_leaf,top_class\nx,YLeaf,NotAClass\n")
    with pytest.raises(VocabularyError):
        load_vocabulary(str(bad))

    clash = tmp_path / "clash.csv"
    clash.write_text("carrier_phrase,reference_leaf,top_class\nx,GateIn,TripEnd\n")
    with pytest.raises(VocabularyError):
        load_vocabulary(str(clash))


def test_vocabulary_rows_are_numbered_by_the_physical_line_they_start_on(tmp_path):
    path = tmp_path / "vocab.csv"
    path.write_text(
        "carrier_phrase,reference_leaf,top_class\n"
        '"Gate\nIn",GateIn,TripStart\n'
        "Rail load,RailLoad,NotAClass\n"
    )
    with pytest.raises(VocabularyError, match="line 4: unknown top class 'NotAClass'"):
        load_vocabulary(str(path))


def test_a_vocabulary_row_without_a_carrier_phrase_is_a_vocabulary_error(tmp_path):
    path = tmp_path / "vocab.csv"
    path.write_text("top_class,reference_leaf,carrier_phrase\nTripStart,RailLoad\n")
    with pytest.raises(VocabularyError, match="line 2: no carrier_phrase"):
        load_vocabulary(str(path))


def test_check_digit_table():
    # spot values from the public algorithm: A=10, U=32, digits face value
    assert iso6346_check_digit("CSQU305438") == 3
    assert iso6346_check_digit("MSKU263715") == 9
