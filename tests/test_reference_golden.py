"""The reference checkers' output, pinned exactly.

``reference_golden.json`` holds, for the 36 suite programs and the 13
workloads at scale 1 under the ``basic``, ``regiontrack``,
``racedetector`` and ``velodrome`` checkers (``lca`` engine, serial and
random-order schedules), the digests of the checker's ``describe()`` and
of its findings in first-seen order, plus every ``checker.*``/``report.*``
counter.  A change to how these checkers store or report accesses must
reproduce all of it; regenerate the fixture
(``tests/make_reference_golden.py``) only for a change meant to alter
their output.
"""

from __future__ import annotations

import json

import pytest

from tests.make_reference_golden import (
    CHECKERS,
    FIXTURE,
    columns,
    configurations,
    programs,
    run_id,
    run_one,
)

GOLDEN = json.loads(FIXTURE.read_text(encoding="utf-8"))
PROGRAMS = programs()


def test_fixture_covers_the_matrix():
    assert GOLDEN["columns"] == {checker: columns(checker) for checker in CHECKERS}
    expected = {
        run_id(name, *config)
        for name, _ in PROGRAMS
        for config in configurations()
    }
    assert len(PROGRAMS) == 36 + 13
    assert set(GOLDEN["runs"]) == expected


@pytest.mark.parametrize("name,build", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_matches_golden(name, build):
    for config in configurations():
        key = run_id(name, *config)
        got = run_one(build, *config)
        want = GOLDEN["runs"][key]
        diffs = {
            column: (expected, actual)
            for column, expected, actual in zip(columns(config[0]), want, got)
            if expected != actual
        }
        assert not diffs, f"{key}: (golden, now) differ: {diffs}"
