"""Velodrome + interleaving exploration: the paper's strawman combination.

Section 4: "As Velodrome detects atomicity violation in a given schedule,
it has to be combined with an interleaving explorer to detect atomicity
violations possible in other schedules."  This module implements exactly
that combination so the comparison can be *run*, not just argued: record
the trace, enumerate (up to a bound) the legal alternative schedules, and
replay each through a fresh Velodrome instance.

The result demonstrates both halves of the paper's pitch:

* given enough schedules, the combination finds what the optimized
  checker finds from one trace (completeness parity on small programs);
* the cost is multiplied by the number of schedules explored -- the
  quantity `schedules_explored` reports and the ablation benchmark plots
  against the optimized checker's single run.

Because exploration needs the whole trace, this is an offline analysis:
it runs at ``on_run_end`` over the events it recorded.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Set

from repro.checker.velodrome import VelodromeChecker
from repro.report import ViolationReport
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
)
from repro.runtime.observer import RuntimeObserver
from repro.trace.trace import Trace

Location = Hashable


class ExploringVelodrome(RuntimeObserver):
    """Velodrome replayed over every legal schedule of the observed trace.

    Parameters
    ----------
    max_schedules:
        Exploration bound; ``truncated`` records whether it was hit.
    """

    requires_dpst = True
    requires_full_stream = True
    checker_name = "velodrome+explorer"

    def __init__(self, max_schedules: int = 2_000) -> None:
        self.max_schedules = max_schedules
        self.report = ViolationReport()
        self.schedules_explored = 0
        self.truncated = False
        self._events: List[object] = []
        self._dpst = None

    # -- recording ----------------------------------------------------------

    def on_run_begin(self, run) -> None:
        self._dpst = run.dpst

    def on_memory(self, event: MemoryEvent) -> None:
        self._events.append(event)

    def on_acquire(self, event: AcquireEvent) -> None:
        self._events.append(event)

    def on_release(self, event: ReleaseEvent) -> None:
        self._events.append(event)

    # -- exploration ------------------------------------------------------------

    def on_run_end(self, run) -> None:
        from repro.trace.explore import InterleavingExplorer

        trace = Trace(list(self._events), dpst=self._dpst)
        explorer = InterleavingExplorer(trace, max_schedules=self.max_schedules)
        for schedule in explorer.schedules():
            self.schedules_explored += 1
            velodrome = VelodromeChecker()
            velodrome.on_run_begin(run)
            for event in schedule:
                velodrome.on_memory(event)
            self.report.extend(velodrome.report)
        self.truncated = explorer.truncated

    # -- queries -----------------------------------------------------------------

    def violation_locations(self) -> Set[Location]:
        """Locations implicated in a cycle in at least one schedule."""
        return set(self.report.locations())
