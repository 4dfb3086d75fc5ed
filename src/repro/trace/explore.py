"""Exhaustive interleaving exploration: the ground-truth oracle.

The paper's claim is that one observed trace suffices to detect every
atomicity violation that *any* schedule of the program (for that input)
can exhibit.  This module provides two independent oracles to validate
that claim on small programs:

:func:`explore_violation_locations`
    Enumerates every legal schedule of a recorded trace -- respecting the
    series-parallel constraints of the DPST, per-step program order, and
    lock mutual exclusion -- and scans each schedule for *realized*
    unserializable triples (an access physically interleaving between two
    same-step accesses with conflicts on both sides).  Exponential, but
    exact.

:func:`analytic_violation_locations`
    Decides realizability of each candidate triple directly from the
    structure: an interleaver ``q`` fits between same-step accesses
    ``p``/``r`` iff ``q``'s step is logically parallel and the base locks
    held continuously across ``p..r`` (the versioned intersection of their
    locksets) are disjoint from ``q``'s base locks.  Polynomial.

Property tests assert that the two oracles agree with each other and with
the checkers on randomly generated programs.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Set, Tuple

from repro.checker.annotations import AtomicAnnotations
from repro.dpst import LCAEngine, relation
from repro.dpst.base import DPSTBase
from repro.errors import TraceError
from repro.runtime.events import AcquireEvent, MemoryEvent, ReleaseEvent
from repro.trace.trace import Trace

Location = Hashable


def _base_name(versioned: str) -> str:
    """Strip the version suffix: ``L#3`` -> ``L``."""
    return versioned.split("#", 1)[0]


def _base_names(lockset: Sequence[str]) -> FrozenSet[str]:
    return frozenset(_base_name(name) for name in lockset)


def _conflicts(a: MemoryEvent, b: MemoryEvent) -> bool:
    """Same metadata key is assumed; conflict = at least one write."""
    return a.is_write or b.is_write


class InterleavingExplorer:
    """Enumerates the legal schedules of one recorded execution.

    Scheduling model: each step node owns the ordered sequence of its
    events (memory accesses and lock operations).  A step may issue its
    next event when every step that *precedes* it in the series-parallel
    order has fully completed, and -- for an acquire -- when the base lock
    is free.  Parallel steps interleave at event granularity.

    Parameters
    ----------
    trace:
        A trace with its DPST attached.
    max_schedules:
        Abort enumeration beyond this many complete schedules (the
        ``truncated`` attribute records whether the bound was hit).
    """

    def __init__(
        self,
        trace: Trace,
        max_schedules: int = 10_000,
        max_expansions: Optional[int] = None,
    ) -> None:
        if trace.dpst is None:
            raise TraceError("exploration requires the trace's DPST")
        self.trace = trace
        self.dpst: DPSTBase = trace.dpst
        self.max_schedules = max_schedules
        #: DFS node budget: lock-heavy traces can branch far more than
        #: they produce distinct memory schedules, so the search itself
        #: must be bounded too.
        self.max_expansions = (
            max_expansions if max_expansions is not None else max_schedules * 100
        )
        self.truncated = False
        self._sequences = self._collect_sequences()
        self._steps = sorted(self._sequences)
        self._preds = self._collect_predecessors()

    # -- setup --------------------------------------------------------------

    def _collect_sequences(self) -> Dict[int, List[object]]:
        sequences: Dict[int, List[object]] = defaultdict(list)
        for event in self.trace.events:
            if isinstance(event, (MemoryEvent, AcquireEvent, ReleaseEvent)):
                sequences[event.step].append(event)
        return dict(sequences)

    def _collect_predecessors(self) -> Dict[int, List[int]]:
        steps = sorted(self._sequences)
        preds: Dict[int, List[int]] = {step: [] for step in steps}
        for a in steps:
            for b in steps:
                if a != b and relation.precedes(self.dpst, a, b):
                    preds[b].append(a)
        return preds

    # -- enumeration ------------------------------------------------------------

    def schedules(self) -> List[List[MemoryEvent]]:
        """Every legal complete schedule, as memory-event sequences.

        Distinct lock-operation interleavings that produce the same memory
        order appear once (deduplicated).  The depth-first search keeps
        its own stack -- one frame per scheduled event -- so a trace of
        any length explores without exhausting the interpreter's.
        """
        self.truncated = False
        sequences = self._sequences
        steps = self._steps
        preds = self._preds
        counts: Dict[int, int] = {step: 0 for step in steps}
        lock_holder: Dict[str, Optional[int]] = {}
        out: List[List[MemoryEvent]] = []
        seen: Set[Tuple[int, ...]] = set()
        current: List[MemoryEvent] = []
        expansions = 0

        def step_done(step: int) -> bool:
            return counts[step] >= len(sequences[step])

        def enabled(step: int) -> bool:
            if step_done(step):
                return False
            for pred in preds[step]:
                if not step_done(pred):
                    return False
            event = sequences[step][counts[step]]
            if isinstance(event, AcquireEvent):
                return lock_holder.get(event.name) is None
            return True

        def expand() -> Optional[List[int]]:
            """Visit the current state: the steps to branch on, or
            ``None`` at a leaf (a complete schedule is recorded) or once
            the search is cut off."""
            nonlocal expansions
            expansions += 1
            if expansions > self.max_expansions:
                self.truncated = True
                return None
            candidates = [step for step in steps if enabled(step)]
            # Eager-release pruning: performing an enabled release first
            # never removes reachable memory orders (a release only
            # *enables* other steps), so branching on it is pure waste.
            for step in candidates:
                if isinstance(sequences[step][counts[step]], ReleaseEvent):
                    candidates = [step]
                    break
            if not candidates:
                if all(step_done(step) for step in steps):
                    key = tuple(event.seq for event in current)
                    if key not in seen:
                        seen.add(key)
                        out.append(list(current))
                        if len(out) >= self.max_schedules:
                            self.truncated = True
                return None
            return candidates

        def perform(step: int) -> object:
            event = sequences[step][counts[step]]
            counts[step] += 1
            if isinstance(event, AcquireEvent):
                lock_holder[event.name] = event.task
            elif isinstance(event, ReleaseEvent):
                lock_holder[event.name] = None
            else:
                current.append(event)
            return event

        def undo(step: int, event: object) -> None:
            counts[step] -= 1
            if isinstance(event, AcquireEvent):
                lock_holder[event.name] = None
            elif isinstance(event, ReleaseEvent):
                lock_holder[event.name] = event.task
            else:
                current.pop()

        # stack[d]: the untried candidates at depth d; path[d]: the (step,
        # event) performed to go from depth d to depth d + 1.
        root = expand()
        stack = [iter(root)] if root is not None else []
        path: List[Tuple[int, object]] = []
        while stack and not self.truncated:
            step = next(stack[-1], None)
            if step is None:
                stack.pop()
                if path:
                    undo(*path.pop())
                continue
            path.append((step, perform(step)))
            child = expand()
            if child is None:
                undo(*path.pop())
            else:
                stack.append(iter(child))
        return out

    # -- verdicts -----------------------------------------------------------------

    def violation_locations(
        self, annotations: Optional[AtomicAnnotations] = None
    ) -> Set[Location]:
        """Metadata keys exhibiting a violation in at least one schedule."""
        annotations = annotations or AtomicAnnotations()
        found: Set[Location] = set()
        for schedule in self.schedules():
            found |= realized_violation_keys(schedule, annotations)
        return found


def realized_violation_keys(
    schedule: Sequence[MemoryEvent],
    annotations: Optional[AtomicAnnotations] = None,
) -> Set[Location]:
    """Keys with a *realized* unserializable triple in this concrete schedule.

    A triple is realized when an access ``q`` by a different step sits
    between two accesses ``p``/``r`` of one step on the same key, with
    conflicts ``(p,q)`` and ``(q,r)``.
    """
    annotations = annotations or AtomicAnnotations()
    per_key: Dict[Location, List[MemoryEvent]] = defaultdict(list)
    for event in schedule:
        if annotations.is_checked(event.location):
            per_key[annotations.metadata_key(event.location)].append(event)
    found: Set[Location] = set()
    for key, events in per_key.items():
        size = len(events)
        for i in range(size):
            p = events[i]
            for l in range(i + 1, size):
                r = events[l]
                if r.step != p.step:
                    continue
                for m in range(i + 1, l):
                    q = events[m]
                    if q.step == p.step:
                        continue
                    if _conflicts(p, q) and _conflicts(q, r):
                        found.add(key)
                        break
                else:
                    continue
                break
            if key in found:
                break
    return found


def analytic_violation_locations(
    trace: Trace,
    annotations: Optional[AtomicAnnotations] = None,
) -> Set[Location]:
    """Keys with a triple realizable in *some* schedule, decided structurally.

    For every same-step pair ``(p, r)`` (program order) and every access
    ``q`` by a logically parallel step on the same key, the triple is
    realizable iff ``(p,q)`` and ``(q,r)`` conflict and the base locks held
    continuously across ``p..r`` -- the versioned lockset intersection --
    are disjoint from ``q``'s base locks (mutual exclusion is the only
    thing that can keep ``q`` out of the window).
    """
    if trace.dpst is None:
        raise TraceError("analytic oracle requires the trace's DPST")
    annotations = annotations or AtomicAnnotations()
    parallel = LCAEngine(trace.dpst).parallel
    per_key: Dict[Location, List[MemoryEvent]] = defaultdict(list)
    for event in trace.memory_events():
        if annotations.is_checked(event.location):
            per_key[annotations.metadata_key(event.location)].append(event)
    found: Set[Location] = set()
    for key, events in per_key.items():
        by_step: Dict[int, List[MemoryEvent]] = defaultdict(list)
        for event in events:
            by_step[event.step].append(event)
        for step, own in by_step.items():
            if len(own) < 2 or key in found:
                continue
            for i in range(len(own)):
                for l in range(i + 1, len(own)):
                    p, r = own[i], own[l]
                    held_throughout = _base_names(
                        frozenset(p.lockset) & frozenset(r.lockset)
                    )
                    for other_step, other_events in by_step.items():
                        if other_step == step or not parallel(step, other_step):
                            continue
                        for q in other_events:
                            if not (_conflicts(p, q) and _conflicts(q, r)):
                                continue
                            if held_throughout & _base_names(q.lockset):
                                continue
                            found.add(key)
                            break
                        if key in found:
                            break
                    if key in found:
                        break
                if key in found:
                    break
    return found


def explore_violation_locations(
    trace: Trace,
    annotations: Optional[AtomicAnnotations] = None,
    max_schedules: int = 10_000,
) -> Set[Location]:
    """Convenience wrapper over :class:`InterleavingExplorer`."""
    explorer = InterleavingExplorer(trace, max_schedules=max_schedules)
    return explorer.violation_locations(annotations)
