"""The optimized checker's output, pinned exactly.

``optimized_golden.json`` holds, for the 36 suite programs and the 13
workloads at scale 1 under both modes, every engine and three schedules,
the digests of ``report.describe()`` and of the violations in first-seen
order, plus every ``checker.*``/``engine.*`` counter.  A change to the
checker's per-access path must reproduce all of it; regenerate the
fixture (``tests/make_optimized_golden.py``) only for a change meant to
alter the checker's output.
"""

from __future__ import annotations

import json

import pytest

from tests.make_optimized_golden import (
    COUNTERS,
    FIXTURE,
    configurations,
    programs,
    run_id,
    run_one,
)

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))
PROGRAMS = programs()


def test_fixture_covers_the_matrix():
    assert GOLDEN["columns"] == ["describe", "violations", *COUNTERS]
    expected = {
        run_id(name, *config)
        for name, _ in PROGRAMS
        for config in configurations()
    }
    assert len(PROGRAMS) == 36 + 13
    assert set(GOLDEN["runs"]) == expected


@pytest.mark.parametrize("name,build", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_matches_golden(name, build):
    columns = GOLDEN["columns"]
    for config in configurations():
        key = run_id(name, *config)
        got = run_one(build, *config)
        want = GOLDEN["runs"][key]
        diffs = {
            column: (expected, actual)
            for column, expected, actual in zip(columns, want, got)
            if expected != actual
        }
        assert not diffs, f"{key}: (golden, now) differ: {diffs}"
