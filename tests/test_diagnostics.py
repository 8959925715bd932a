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

