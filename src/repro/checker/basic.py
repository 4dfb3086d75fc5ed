"""The basic atomicity checker (paper Figure 3, made symmetric).

Maintains, for every checked location, the *complete* history of dynamic
accesses: the ``<step, type, lockset>`` entries of Figure 3, stored as the
:class:`~repro.runtime.events.MemoryEvent` the checker receives, grouped
by step.  On each access it searches for an unserializable triple
involving the current access in either role:

1. **current as A3** (the literal Figure 3 check): a prior access ``p`` by
   the same step plus a prior access ``q`` by a logically parallel step,
   with ``(p, q, current)`` unserializable;
2. **current as A2** (symmetric completion): a prior *pair* ``(p, r)`` by
   one parallel step, with ``(p, current, r)`` unserializable.

The second check is not in the paper's Figure 3 pseudocode, but without it
the basic algorithm misses violations whose interleaving access appears in
the trace only *after* the two-access pattern has completed -- a case the
optimized algorithm explicitly covers in HandleFirstAccessCurrentTask
(Figure 8).  Adding it makes this checker the sound *and complete*
reference the others are validated against (see
``tests/test_checker_equivalence.py``).

Lock handling: a same-step pair only anchors a triple when the versioned
locksets of its two accesses are disjoint (different critical sections,
Section 3.3).  The interleaver's own lockset is not consulted -- it can
always slot between two critical sections.

This is the reference analysis: sound, precise and complete (under the
paper's trace-coverage assumption), but its metadata grows with the number
of dynamic accesses and every access pays a scan over the history -- the
motivation for the fixed-size metadata of
:class:`repro.checker.optimized.OptAtomicityChecker`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.checker.annotations import AtomicAnnotations
from repro.checker.patterns import is_unserializable_triple, triple_code
from repro.errors import CheckerError
from repro.report import AccessInfo, AtomicityViolation, ViolationReport
from repro.runtime.events import MemoryEvent
from repro.runtime.observer import RuntimeObserver

Location = Hashable

#: One location's history: step -> the step's accesses, in trace order.
_History = Dict[int, List[MemoryEvent]]


def _locks_disjoint(mine: Tuple[str, ...], theirs: Tuple[str, ...]) -> bool:
    """No common (versioned) lock: the accesses are in different critical
    sections, so an interleaving access can separate them."""
    return not mine or not theirs or set(mine).isdisjoint(theirs)


class BasicAtomicityChecker(RuntimeObserver):
    """Unbounded access histories, checked on every access (Figure 3+)."""

    requires_dpst = True
    location_sharded = True
    checker_name = "basic"

    def __init__(self) -> None:
        self.report = ViolationReport()
        self._history: Dict[Location, _History] = {}
        self._engine = None
        self._annotations: Optional[AtomicAnnotations] = None
        #: Accesses analyzed (observability counter; see repro.obs).
        self._accesses = 0

    # -- observer wiring ----------------------------------------------------

    def on_run_begin(self, run) -> None:
        engine = getattr(run, "engine", None)
        if engine is None or not callable(getattr(engine, "parallel", None)):
            raise CheckerError(
                "BasicAtomicityChecker requires a parallelism engine "
                "(any repro.dpst.engines.ParallelismEngine)"
            )
        self._engine = engine
        self._annotations = run.annotations or AtomicAnnotations()
        self._annotations_trivial = self._annotations.trivial

    def on_memory(self, event: MemoryEvent) -> None:
        if self._annotations_trivial:
            key = event.location
        else:
            annotations = self._annotations
            if not annotations.is_checked(event.location):
                return
            key = annotations.metadata_key(event.location)
        self._accesses += 1
        history = self._history.get(key)
        if history is None:
            history = self._history[key] = {}
        self._check_current_as_pair_end(key, history, event)
        self._check_current_as_interleaver(key, history, event)
        history.setdefault(event.step, []).append(event)

    # -- the two triple searches ---------------------------------------------------

    def _check_current_as_pair_end(
        self, key: Location, history: _History, current: MemoryEvent
    ) -> None:
        """Current access closes a same-step pair (Figure 3 literal)."""
        same_step = history.get(current.step)
        if not same_step:
            return
        parallel = self._engine.parallel
        for step, others in history.items():
            if step == current.step or not parallel(current.step, step):
                continue
            for q in others:
                for p in same_step:
                    if not _locks_disjoint(p.lockset, current.lockset):
                        continue
                    if is_unserializable_triple(
                        p.access_type, q.access_type, current.access_type
                    ):
                        self._report(key, p, q, current)

    def _check_current_as_interleaver(
        self, key: Location, history: _History, current: MemoryEvent
    ) -> None:
        """Current access interleaves a previously completed pair."""
        parallel = self._engine.parallel
        for step, others in history.items():
            if step == current.step or len(others) < 2:
                continue
            if not parallel(current.step, step):
                continue
            for i, p in enumerate(others):
                for r in others[i + 1 :]:
                    if not _locks_disjoint(p.lockset, r.lockset):
                        continue
                    if is_unserializable_triple(
                        p.access_type, current.access_type, r.access_type
                    ):
                        self._report(key, p, current, r)

    def _report(
        self,
        key: Location,
        first: MemoryEvent,
        second: MemoryEvent,
        third: MemoryEvent,
    ) -> None:
        self.report.add(
            AtomicityViolation(
                location=key,
                first=AccessInfo.of(first),
                second=AccessInfo.of(second),
                third=AccessInfo.of(third),
                pattern=triple_code(
                    first.access_type, second.access_type, third.access_type
                ),
                checker=self.checker_name,
            )
        )

    # -- introspection -----------------------------------------------------------

    def history_size(self, location: Location) -> int:
        """Number of stored entries for *location* (metadata-growth metric)."""
        history = self._history.get(location)
        return 0 if history is None else sum(map(len, history.values()))

    def total_history_entries(self) -> int:
        """Total stored entries across all locations.

        Grows linearly with dynamic accesses -- the quantity the optimized
        checker's 12+2 fixed entries replace (ablation ABL-META).
        """
        return sum(map(self.history_size, self._history))

    def metrics(self) -> Dict[str, int]:
        """Canonical ``repro.obs`` counters; shard-summable (see the
        optimized checker's ``metrics`` for the invariant)."""
        peak = max(map(self.history_size, self._history), default=0)
        return {
            "checker.accesses_checked": self._accesses,
            "checker.basic.history_entries": self.total_history_entries(),
            "checker.basic.history_peak": peak,
            "checker.basic.tracked_locations": len(self._history),
            "report.violations": len(self.report),
            "report.raw_findings": self.report.raw_count,
        }
