"""Violation report objects: deduplication, queries, rendering."""

from repro.report import (
    READ,
    WRITE,
    AccessInfo,
    AtomicityViolation,
    TraceCycleViolation,
    ViolationReport,
    merge_reports,
)


def make_violation(location="X", steps=(1, 2, 1), pattern="RWW"):
    a1 = AccessInfo(step=steps[0], access_type=READ, location=location, task=1)
    a2 = AccessInfo(step=steps[1], access_type=WRITE, location=location, task=2)
    a3 = AccessInfo(step=steps[2], access_type=WRITE, location=location, task=1)
    return AtomicityViolation(
        location=location, first=a1, second=a2, third=a3, pattern=pattern,
        checker="test",
    )


class TestDeduplication:
    def test_add_returns_true_for_new(self):
        report = ViolationReport()
        assert report.add(make_violation())

    def test_duplicate_not_double_counted(self):
        report = ViolationReport()
        report.add(make_violation())
        assert not report.add(make_violation())
        assert len(report) == 1
        assert report.raw_count == 2

    def test_different_location_is_distinct(self):
        report = ViolationReport()
        report.add(make_violation("X"))
        report.add(make_violation("Y"))
        assert len(report) == 2

    def test_different_pattern_is_distinct(self):
        report = ViolationReport()
        report.add(make_violation(pattern="RWW"))
        report.add(make_violation(pattern="RWR"))
        assert len(report) == 2

    def test_cycle_dedup_ignores_rotation(self):
        report = ViolationReport()
        closing = AccessInfo(step=3, access_type=WRITE, location="X")
        report.add_cycle(TraceCycleViolation("X", (1, 2, 3), closing))
        assert not report.add_cycle(TraceCycleViolation("X", (2, 3, 1), closing))
        assert len(report.cycles) == 1


class TestQueries:
    def test_bool_and_len(self):
        report = ViolationReport()
        assert not report
        report.add(make_violation())
        assert report
        assert len(report) == 1

    def test_locations(self):
        report = ViolationReport()
        report.add(make_violation("B"))
        report.add(make_violation("A"))
        report.add(make_violation("B", steps=(5, 6, 5)))
        assert report.locations() == ["B", "A"]

    def test_for_location(self):
        report = ViolationReport()
        report.add(make_violation("X"))
        report.add(make_violation("Y"))
        assert len(report.for_location("X")) == 1

    def test_patterns(self):
        report = ViolationReport()
        report.add(make_violation(pattern="WWW"))
        report.add(make_violation(pattern="RWR"))
        assert report.patterns() == ["RWR", "WWW"]

    def test_iteration_covers_both_kinds(self):
        report = ViolationReport()
        report.add(make_violation())
        closing = AccessInfo(step=3, access_type=WRITE, location="X")
        report.add_cycle(TraceCycleViolation("X", (1, 2), closing))
        assert len(list(report)) == 2


class TestRendering:
    def test_empty_describe(self):
        assert ViolationReport().describe() == "no violations"

    def test_describe_mentions_pattern_and_location(self):
        report = ViolationReport()
        report.add(make_violation("counter", pattern="RWW"))
        text = report.describe()
        assert "counter" in text
        assert "RWW" in text
        assert "interleaving parallel access" in text

    def test_access_info_describe(self):
        info = AccessInfo(step=4, access_type=WRITE, location="X", task=2,
                          lockset=("L", "M"))
        text = info.describe()
        assert "W('X')" in text
        assert "step 4" in text
        assert "task 2" in text
        assert "L, M" in text

    def test_access_info_of_event(self):
        from repro.runtime.events import MemoryEvent

        event = MemoryEvent(7, 2, 4, "X", WRITE, ("M#1", "L#0"))
        assert AccessInfo.of(event) == AccessInfo(
            step=4, access_type=WRITE, location="X", task=2,
            lockset=("L#0", "M#1"),
        )
        # A negative task id reads as unknown; repeated locks collapse.
        unknown = MemoryEvent(8, -1, 4, "X", READ, ("L#0", "L#0"))
        assert AccessInfo.of(unknown).task is None
        assert AccessInfo.of(unknown).lockset == ("L#0",)

    def test_cycle_describe(self):
        closing = AccessInfo(step=3, access_type=WRITE, location="X")
        cycle = TraceCycleViolation("X", (1, 2, 3), closing)
        assert "1 -> 2 -> 3" in cycle.describe()


class TestMerging:
    def test_extend_deduplicates(self):
        first = ViolationReport()
        first.add(make_violation())
        second = ViolationReport()
        second.add(make_violation())
        second.add(make_violation("Y"))
        first.extend(second)
        assert len(first) == 2

    def test_merge_reports(self):
        reports = []
        for location in ("A", "B", "A"):
            r = ViolationReport()
            r.add(make_violation(location))
            reports.append(r)
        merged = merge_reports(reports)
        assert len(merged) == 2


class TestRawCountAccounting:
    """Regression: ``extend``/``merge`` must sum the inputs' raw counts.

    ``raw_count`` is the total number of ``add`` calls, duplicates
    included.  Extending used to re-count only the *distinct* records it
    copied, so shards reporting duplicate violations under-counted (and
    a later ``merge`` overwrote the total again).
    """

    def test_extend_sums_raw_counts_with_duplicates(self):
        first = ViolationReport()
        first.add(make_violation())
        first.add(make_violation())  # duplicate: raw 2, distinct 1
        second = ViolationReport()
        second.add(make_violation())  # same key as first's
        second.add(make_violation("Y"))
        second.add(make_violation("Y"))  # duplicate: raw 3, distinct 2
        first.extend(second)
        assert len(first) == 2
        assert first.raw_count == 5

    def test_merge_sums_raw_counts(self):
        reports = []
        for location in ("A", "B", "A"):
            r = ViolationReport()
            r.add(make_violation(location))
            r.add(make_violation(location))  # duplicate in every shard
            reports.append(r)
        merged = ViolationReport.merge(reports)
        assert len(merged) == 2
        assert merged.raw_count == 6

    def test_chained_extends_keep_counting(self):
        total = ViolationReport()
        for _ in range(3):
            shard = ViolationReport()
            shard.add(make_violation())
            total.extend(shard)
        assert len(total) == 1
        assert total.raw_count == 3


class TestJsonRoundTrip:
    """``report_to_dict``/``report_from_dict`` (result-cache entries)."""

    def restored(self, report):
        import json

        from repro.report import report_from_dict, report_to_dict

        # Through an actual JSON encode so only JSON-safe types survive.
        return report_from_dict(json.loads(json.dumps(report_to_dict(report))))

    def test_round_trip_preserves_everything(self):
        report = ViolationReport()
        report.add(make_violation())
        report.add(make_violation())  # duplicate keeps raw_count honest
        report.add(make_violation(("grid", 3), steps=(4, 5, 4), pattern="WWR"))
        cycle = TraceCycleViolation(
            location="Z",
            cycle=(3, 1, 2),
            closing_access=AccessInfo(step=9, access_type=WRITE, location="Z"),
        )
        report.add_cycle(cycle)
        back = self.restored(report)
        assert back.describe() == report.describe()
        assert back.raw_count == report.raw_count
        assert [v.key for v in back] == [v.key for v in report]

    def test_round_trip_empty(self):
        back = self.restored(ViolationReport())
        assert not back and back.raw_count == 0

    def test_restored_report_still_deduplicates(self):
        report = ViolationReport()
        report.add(make_violation())
        back = self.restored(report)
        assert not back.add(make_violation())  # same key: duplicate

    def test_rejects_foreign_dict(self):
        import pytest

        from repro.report import report_from_dict

        with pytest.raises(ValueError):
            report_from_dict({"schema": "something-else/9"})


class TestNormalization:
    """The canonical forms the equivalence tests and fuzz oracle compare."""

    def test_normal_form_is_insertion_order_independent(self):
        from repro.report import normalize_report

        forward = ViolationReport()
        backward = ViolationReport()
        violations = [
            make_violation("X", steps=(1, 2, 1)),
            make_violation("Y", steps=(4, 5, 4)),
            make_violation("X", steps=(7, 8, 7), pattern="RWR"),
        ]
        for v in violations:
            forward.add(v)
        for v in reversed(violations):
            backward.add(v)
        assert normalize_report(forward) == normalize_report(backward)

    def test_normal_form_distinguishes_different_triples(self):
        from repro.report import normalize_report

        one = ViolationReport()
        one.add(make_violation("X", steps=(1, 2, 1)))
        other = ViolationReport()
        other.add(make_violation("X", steps=(1, 3, 1)))
        assert normalize_report(one) != normalize_report(other)

    def test_normalized_locations_deduplicates_and_sorts(self):
        from repro.report import normalized_locations

        report = ViolationReport()
        report.add(make_violation("Y"))
        report.add(make_violation("X"))
        report.add(make_violation("X", pattern="RWR"))
        assert normalized_locations(report) == ("'X'", "'Y'")

    def test_heterogeneous_locations_are_orderable(self):
        from repro.report import normalize_locations

        # Tuples and strings are not mutually orderable; the string key
        # must make one canonical order anyway.
        keys = normalize_locations([("g", 1), "X", ("g", 0)])
        assert list(keys) == sorted(keys)
        assert len(keys) == 3

    def test_cycles_participate_in_the_normal_form(self):
        from repro.report import normalize_report

        closing = AccessInfo(step=3, access_type=WRITE, location="X")
        with_cycle = ViolationReport()
        with_cycle.add_cycle(TraceCycleViolation("X", (1, 2, 3), closing))
        without = ViolationReport()
        assert normalize_report(with_cycle) != normalize_report(without)
