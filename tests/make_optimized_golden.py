"""Generate ``tests/optimized_golden.json``: the optimized checker's exact
output on a fixed matrix of programs and configurations.

The fixture pins, per run, the digest of ``report.describe()``, the digest
of the ``repr`` of the violations in first-seen order, and every
``checker.*``/``engine.*`` counter the run flushes.  It is regenerated
only when a change is *meant* to alter the checker's output; a
per-access optimization must leave it byte-identical
(``tests/test_optimized_golden.py``).

The matrix: the 36 suite programs and the 13 ``repro.workloads`` kernels
at scale 1, each under ``mode`` paper and thorough, every built-in
parallelism engine, and three schedules (serial child-first, help-first
LIFO and ``RandomOrderExecutor(3)``).

Usage::

    PYTHONPATH=src python tests/make_optimized_golden.py   # rewrite the fixture
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

FIXTURE = Path(__file__).resolve().parent / "optimized_golden.json"

MODES = ("paper", "thorough")
ENGINES = ("lca", "labels", "vc", "depa")
SCHEDULES = ("serial", "help_first_lifo", "random3")

#: The counters pinned per run, in fixture column order.
COUNTERS = (
    "checker.accesses_checked",
    "checker.optimized.promotions",
    "checker.optimized.promotions_blocked",
    "checker.optimized.memo_hits",
    "checker.optimized.pattern_checks",
    "checker.optimized.global_entries",
    "checker.optimized.local_entries",
    "checker.optimized.cells_freed",
    "checker.optimized.tracked_locations",
    "report.violations",
    "report.raw_findings",
    "engine.queries",
    "engine.unique",
    "engine.hops",
)


def _executor(schedule: str):
    from repro.runtime import RandomOrderExecutor, SerialExecutor

    if schedule == "serial":
        return SerialExecutor()
    if schedule == "help_first_lifo":
        return SerialExecutor("help_first", "lifo")
    return RandomOrderExecutor(3)


def programs() -> List[Tuple[str, object]]:
    """``(name, zero-argument builder)`` for every program in the matrix."""
    from repro.suite import all_cases
    from repro.workloads import all_workloads

    out: List[Tuple[str, object]] = [
        (f"suite/{case.name}", case.build) for case in all_cases()
    ]
    out.extend(
        (f"workload/{spec.name}", (lambda build=spec.build: build(1)))
        for spec in all_workloads()
    )
    return out


def configurations() -> Iterator[Tuple[str, str, str]]:
    for mode in MODES:
        for engine in ENGINES:
            for schedule in SCHEDULES:
                yield mode, engine, schedule


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def run_one(build, mode: str, engine: str, schedule: str) -> List[object]:
    """One fixture row: describe digest, violations digest, counters."""
    from repro.checker import OptAtomicityChecker
    from repro.obs import MetricsRecorder
    from repro.runtime import run_program

    checker = OptAtomicityChecker(mode=mode)
    recorder = MetricsRecorder()
    run_program(
        build(),
        executor=_executor(schedule),
        observers=[checker],
        parallel_engine=engine,
        recorder=recorder,
    )
    counters = recorder.snapshot().counters
    report = checker.report
    row: List[object] = [
        _digest(report.describe()),
        _digest(repr(report.violations)),
    ]
    row.extend(int(counters.get(name, 0)) for name in COUNTERS)
    return row


def run_id(program: str, mode: str, engine: str, schedule: str) -> str:
    return f"{program}|{mode}|{engine}|{schedule}"


def generate() -> Dict[str, object]:
    runs: Dict[str, List[object]] = {}
    for name, build in programs():
        for mode, engine, schedule in configurations():
            runs[run_id(name, mode, engine, schedule)] = run_one(
                build, mode, engine, schedule
            )
    return {
        "columns": ["describe", "violations", *COUNTERS],
        "runs": runs,
    }


def dump(data: Dict[str, object]) -> str:
    lines = ["{", f'  "columns": {json.dumps(data["columns"])},', '  "runs": {']
    runs = data["runs"]
    for index, (key, row) in enumerate(runs.items()):
        comma = "," if index < len(runs) - 1 else ""
        lines.append(f"    {json.dumps(key)}: {json.dumps(row)}{comma}")
    lines.extend(["  }", "}", ""])
    return "\n".join(lines)


def main() -> int:
    FIXTURE.write_text(dump(generate()), encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
