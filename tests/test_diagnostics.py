from cargokg.diagnostics import MAX_RECORDS_PER_KIND, Diagnostics


def test_records_are_capped_per_kind_and_counts_stay_exact():
    diag = Diagnostics()
    for i in range(10 * MAX_RECORDS_PER_KIND):
        diag.add("filter_nondate", "row %d" % i)
    diag.add("skipped_row", "only one")
    assert diag.count("filter_nondate") == 10 * MAX_RECORDS_PER_KIND
    assert len(diag) == 10 * MAX_RECORDS_PER_KIND + 1
    kept = [message for kind, message in diag.records if kind == "filter_nondate"]
    assert kept == ["row %d" % i for i in range(MAX_RECORDS_PER_KIND)]
    assert ("skipped_row", "only one") in diag.records


def test_merge_respects_the_cap():
    first, second = Diagnostics(), Diagnostics()
    for i in range(MAX_RECORDS_PER_KIND - 3):
        first.add("a", "first %d" % i)
    for i in range(10 * MAX_RECORDS_PER_KIND):
        second.add("a", "second %d" % i)
        second.add("b", "second %d" % i)
    first.merge(second)
    assert first.count("a") == 11 * MAX_RECORDS_PER_KIND - 3
    assert first.count("b") == 10 * MAX_RECORDS_PER_KIND
    assert len(first) == 21 * MAX_RECORDS_PER_KIND - 3
    kept_a = [message for kind, message in first.records if kind == "a"]
    assert len(kept_a) == MAX_RECORDS_PER_KIND
    assert kept_a[-3:] == ["second 0", "second 1", "second 2"]
    assert sum(kind == "b" for kind, _ in first.records) == MAX_RECORDS_PER_KIND
