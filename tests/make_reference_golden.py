"""Generate ``tests/reference_golden.json``: the exact output of the
checkers the optimized one is compared against -- ``basic``,
``regiontrack``, ``racedetector`` and ``velodrome`` -- on a fixed matrix
of programs and schedules.

The fixture pins, per run, the digest of the checker's ``describe()``
text, the digest of the ``repr`` of its findings in first-seen order (the
report's violations and cycles; the race detector's ``races``), and every
``checker.*``/``report.*`` counter the run flushes.  Like
``optimized_golden.json`` it is regenerated only when a change is *meant*
to alter a checker's output (``tests/test_reference_golden.py``).

The matrix: the 36 suite programs and the 13 ``repro.workloads`` kernels
at scale 1, each under every checker above, the ``lca`` engine and two
schedules (serial child-first and ``RandomOrderExecutor(3)``).

Usage::

    PYTHONPATH=src python -m tests.make_reference_golden   # rewrite the fixture
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from tests.make_optimized_golden import _digest, _executor, dump, programs

FIXTURE = Path(__file__).resolve().parent / "reference_golden.json"

SCHEDULES = ("serial", "random3")

#: The counters pinned per run of each checker, in fixture column order.
COUNTERS: Dict[str, Tuple[str, ...]] = {
    "basic": (
        "checker.accesses_checked",
        "checker.basic.history_entries",
        "checker.basic.history_peak",
        "checker.basic.tracked_locations",
    ),
    "regiontrack": (
        "checker.accesses_checked",
        "checker.regiontrack.regions",
        "checker.regiontrack.pair_witnesses",
        "checker.regiontrack.lockset_entries",
        "checker.regiontrack.triple_checks",
        "checker.regiontrack.memo_hits",
        "checker.regiontrack.tracked_locations",
    ),
    "racedetector": (
        "checker.accesses_checked",
        "checker.racedetector.races",
    ),
    "velodrome": (
        "checker.accesses_checked",
        "checker.velodrome.edges",
        "checker.velodrome.transactions",
    ),
}
CHECKERS = tuple(COUNTERS)
REPORT_COUNTERS = ("report.violations", "report.raw_findings")


def columns(checker: str) -> List[str]:
    return ["describe", "findings", *COUNTERS[checker], *REPORT_COUNTERS]


def configurations() -> Iterator[Tuple[str, str]]:
    for checker in CHECKERS:
        for schedule in SCHEDULES:
            yield checker, schedule


def run_one(build, checker_name: str, schedule: str) -> List[object]:
    """One fixture row: describe digest, findings digest, counters."""
    from repro.checker import make_checker
    from repro.obs import MetricsRecorder
    from repro.runtime import run_program

    checker = make_checker(checker_name)
    recorder = MetricsRecorder()
    run_program(
        build(),
        executor=_executor(schedule),
        observers=[checker],
        parallel_engine="lca",
        recorder=recorder,
    )
    if checker_name == "racedetector":
        text, findings = checker.describe(), checker.races
    else:
        text, findings = checker.report.describe(), list(checker.report)
    counters = recorder.snapshot().counters
    row: List[object] = [_digest(text), _digest(repr(findings))]
    row.extend(
        int(counters.get(name, 0))
        for name in (*COUNTERS[checker_name], *REPORT_COUNTERS)
    )
    return row


def run_id(program: str, checker: str, schedule: str) -> str:
    return f"{program}|{checker}|{schedule}"


def generate() -> Dict[str, object]:
    runs: Dict[str, List[object]] = {}
    for name, build in programs():
        for checker, schedule in configurations():
            runs[run_id(name, checker, schedule)] = run_one(build, checker, schedule)
    return {
        "columns": {checker: columns(checker) for checker in CHECKERS},
        "runs": runs,
    }


def main() -> int:
    FIXTURE.write_text(dump(generate()), encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
