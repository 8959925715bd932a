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
    iso6346_check_digit,
    load_vocabulary,
    make_container_id,
    normalize_phrase,
    parse_csm_record,
    parse_event_date,
    read_csm_csv,
    split_location,
    timestamp_literal,
    validate_container_id,
    write_csm_csv,
)

from helpers import table3_records


def test_parse_row_with_vessel():
    rec = parse_csm_record(
        "12350 | ABCD1234567 | 30 May 2010 | Loaded/Ramped | Shangai (CN) | Full | Aurora"
    )
    assert rec.csm_id == "12350"
    assert rec.container_id == "ABCD1234567"
    assert rec.time == date(2010, 5, 30)
    assert rec.location == Location("Shangai", "CN")
    assert rec.loading_status is LoadingStatus.FULL
    assert rec.vessel_name == "Aurora"


def test_parse_row_without_vessel():
    rec = parse_csm_record(
        "12345 | ABCD1234567 | 27 May 2010 | Received at Origin | Shangai (CN) | Empty | --"
    )
    assert rec.vessel_name is None
    assert rec.loading_status is LoadingStatus.EMPTY


def test_parse_field_count_mismatch_names_row():
    with pytest.raises(CsmParseError) as err:
        parse_csm_record("12345 | ABCD1234567 | 27 May 2010 | Gate In | Shangai (CN) | Full")
    assert "12345" in str(err.value)
    assert "7 fields" in str(err.value)


def test_parse_malformed_date():
    with pytest.raises(CsmParseError) as err:
        parse_csm_record(
            "77 | ABCD1234560 | 30 Smarch 2010 | Gate In | Shangai (CN) | Full | --"
        )
    assert "date" in str(err.value)


def test_check_digit_diagnostic_vs_strict():
    diag = Diagnostics()
    line = "12346 | ABCD1234567 | 27 May 2010 | Gate In | Shangai (CN) | Full | --"
    parse_csm_record(line, diagnostics=diag)
    assert diag.count("bad_check_digit") == 1
    with pytest.raises(CsmParseError):
        parse_csm_record(line, strict_check_digit=True)


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


def test_split_location():
    assert split_location("Port Kelang (MY)") == Location("Port Kelang", "MY")
    assert split_location("Inland Depot") == Location("Inland Depot", "")


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


def test_check_digit_table():
    # spot values from the public algorithm: A=10, U=32, digits face value
    assert iso6346_check_digit("CSQU305438") == 3
    assert iso6346_check_digit("MSKU263715") == 9
