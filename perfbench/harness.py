"""Set-up and verdict bookkeeping shared by the end-to-end and traced runs."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro import CheckSession, run_program
from repro.report import normalize_report, normalized_locations
from repro.runtime.program import TaskProgram
from repro.trace.serialize import dump_trace

from scenarios import Scenario

#: Timed rounds (traced passes) at least, whatever ``--seconds`` says.
MIN_ROUNDS = 3


@dataclass
class Item:
    """One program of a workload, with its recorded trace on disk."""

    program: TaskProgram
    v2: str
    v3: str
    cache: str
    events: int
    #: ``normalize_report`` of the in-memory ``jobs=1`` check of the trace.
    reference: tuple


class Gate:
    """Counts verdict-checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {detail or 'wrong verdict'}")

    def same(self, label: str, item: Item, report) -> None:
        """Record whether *report* matches *item*'s reference verdict."""
        self.record(label, normalize_report(report) == item.reference)


def seconds_of(fn: Callable[[], object]) -> Tuple[float, object]:
    """Run *fn* once; return its wall seconds and its result."""
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def prepare(scenario: Scenario, directory: str, gate: Gate) -> List[Item]:
    """Record, write and reference-check every program; prime the cache.

    The references must violate exactly the scenario's known locations.
    """
    os.makedirs(directory)
    items = []
    found = set()
    for index, program in enumerate(scenario.programs):
        trace = run_program(program, record_trace=True).trace
        stem = os.path.join(directory, f"{index:02d}-{program.name}")
        dump_trace(trace, stem + ".jsonl", format="jsonl")
        dump_trace(trace, stem + ".trc", format="columnar")
        reference = CheckSession(trace).check()
        found.update(normalized_locations(reference))
        item = Item(
            program, stem + ".jsonl", stem + ".trc", stem + ".cache",
            len(trace.memory_events()), normalize_report(reference),
        )
        gate.same(f"{program.name}/prime", item,
                  CheckSession(item.v3).check(cache_dir=item.cache))
        items.append(item)
    gate.record(
        f"{scenario.name}/reference",
        found == set(scenario.expected),
        f"violated {sorted(found)}, expected {sorted(scenario.expected)}",
    )
    return items
