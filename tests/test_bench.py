import csv

from cargokg.bench import (
    cardinalities_for,
    results_table,
    run_suite,
    write_results_csv,
)


def test_cardinalities_table_rows():
    assert cardinalities_for(5000) == (565, 841)
    assert cardinalities_for(10000) == (593, 960)
    assert cardinalities_for(15000) == (604, 1023)
    assert cardinalities_for(20000) == (618, 1078)
    ports, vessels = cardinalities_for(2500)
    assert 3 <= ports < 565
    assert 2 <= vessels < 841


def test_tiny_suite_runs(tmp_path):
    results = run_suite(
        sizes=[120],
        patterns=("loop", "unnecessary_transshipment"),
        repetitions=2,
        seed=5,
        injected_per_kind=2,
    )
    assert len(results) == 5  # 3 loop variants + 2 unnecessary variants
    for r in results:
        assert r.status == "ok"
        assert r.median_seconds > 0
        assert r.repetitions == 2
    # performance knobs never change answers
    by_pattern = {}
    for r in results:
        by_pattern.setdefault(r.pattern, set()).add(r.detections_found)
    assert by_pattern["loop"] == {2}
    assert by_pattern["unnecessary_transshipment"] == {2}
    # the memory figure is the process's peak so far
    peaks = [r.peak_memory_kb for r in results]
    assert peaks == sorted(peaks)

    csv_path = str(tmp_path / "bench.csv")
    write_results_csv(csv_path, results)
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 6
    assert rows[0][0] == "dataset"

    table = results_table(results)
    assert "loop" in table and "intermediate" in table
    assert "DNF" not in table


def test_timeout_records_dnf():
    results = run_suite(
        sizes=[60],
        patterns=("loop",),
        repetitions=1,
        seed=5,
        injected_per_kind=0,
        timeout_seconds=-1,
    )
    assert all(r.status == "dnf" for r in results)
    assert all(r.detections_found == -1 for r in results)
    table = results_table(results)
    assert "DNF" in table


def test_zero_size_handled():
    # degenerate size: nothing to detect, near-zero time
    results = run_suite(sizes=[4], patterns=("loop",), repetitions=1, seed=9,
                        injected_per_kind=0, transshipment_rate=0.0)
    assert all(r.detections_found == 0 for r in results)
