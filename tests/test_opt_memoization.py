"""The version-gated memoization must never change verdicts.

The optimized checker skips re-running a candidate-check branch when the
global space is unchanged since the step last ran it (GlobalSpace.version
stamps in LocalCell).  These tests pin the safety property the skip rests
on: whenever the space *does* change in a way that could produce a new
triple, the next access re-checks and reports.
"""

import pytest

from repro.checker import OptAtomicityChecker
from repro.dpst import ArrayDPST, NodeKind, ROOT_ID
from repro.report import READ, WRITE
from repro.runtime.events import MemoryEvent
from repro.trace.replay import replay_memory_events


def mem(seq, task, step, loc, access, lockset=()):
    return MemoryEvent(seq, task, step, loc, access, lockset)


def three_parallel_steps():
    """Root finish with three async/step pairs: all steps parallel."""
    tree = ArrayDPST()
    steps = []
    for _ in range(3):
        async_node = tree.add_node(ROOT_ID, NodeKind.ASYNC)
        steps.append(tree.add_node(async_node, NodeKind.STEP))
    return tree, steps


class TestRecheckAfterSpaceChange:
    def test_new_write_single_triggers_recheck_on_next_access(self):
        """Step A reads twice (candidate checked against empty singles),
        a parallel write lands, then A reads a third time: the re-formed
        candidate must now be checked against the new W1 and report."""
        tree, (a, b, _) = three_parallel_steps()
        events = [
            mem(0, 1, a, "X", READ),
            mem(1, 1, a, "X", READ),    # candidate RR checked: no writes yet
            mem(2, 2, b, "X", WRITE),   # space changes: W1 = b
            mem(3, 1, a, "X", READ),    # must re-check: (R, W, R)
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert set(checker.report.locations()) == {"X"}

    def test_unchanged_space_skip_does_not_lose_reports(self):
        """Hammering the same access pattern with no space change in
        between neither re-reports nor misses anything."""
        tree, (a, b, _) = three_parallel_steps()
        events = [
            mem(0, 2, b, "X", WRITE),
            mem(1, 1, a, "X", READ),
            mem(2, 1, a, "X", READ),    # reports (R, W, R) via W1
            mem(3, 1, a, "X", READ),    # gated: identical check skipped
            mem(4, 1, a, "X", READ),
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert len(checker.report) == 1

    def test_write_after_reads_rechecks_other_kind(self):
        """Gating is per pattern kind: a skipped RR branch must not gate
        the RW branch of a later write."""
        tree, (a, b, _) = three_parallel_steps()
        events = [
            mem(0, 2, b, "X", WRITE),   # W1 = b
            mem(1, 1, a, "X", READ),
            mem(2, 1, a, "X", READ),    # RR candidate: (R,W,R) reported
            mem(3, 1, a, "X", WRITE),   # RW candidate: (R,W,W) must report too
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        patterns = {v.pattern for v in checker.report.violations}
        assert "RWR" in patterns
        assert "RWW" in patterns

    def test_lockset_change_after_gate(self):
        """A gated step whose earlier candidate ran can later form a
        candidate with a *different* lockset; gating must not suppress a
        candidate that previously could not form at all."""
        tree, (a, b, _) = three_parallel_steps()
        events = [
            # First read and second read share a critical section: no
            # candidate forms (locks not disjoint), nothing to gate.
            mem(0, 1, a, "X", READ, ("L",)),
            mem(1, 1, a, "X", READ, ("L",)),
            mem(2, 2, b, "X", WRITE),          # W1 = b
            # Lock released and re-acquired: now disjoint with the first
            # read, candidate forms and must be checked.
            mem(3, 1, a, "X", READ, ("L#1",)),
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert set(checker.report.locations()) == {"X"}

    def test_gating_stays_within_documented_semantics(self):
        """Differential on every prefix of a busy stream: gated paper mode
        is always a subset of thorough mode, and any gap is the documented
        Figure 9 omission (paper mode defers the verdict until a first
        access by some step re-checks the stored pattern), never an effect
        of the version gating: by the final event the modes agree here."""
        tree, (a, b, c) = three_parallel_steps()
        stream = [
            mem(0, 1, a, "X", READ),
            mem(1, 1, a, "X", READ),
            mem(2, 2, b, "X", READ),
            mem(3, 2, b, "X", WRITE),   # Fig. 9 path: paper defers RWR here
            mem(4, 3, c, "X", WRITE),   # first access by c: paper catches up
            mem(5, 1, a, "X", WRITE),
            mem(6, 3, c, "X", READ),
            mem(7, 2, b, "X", READ),
        ]
        for prefix_len in range(1, len(stream) + 1):
            gated = OptAtomicityChecker()
            replay_memory_events(stream[:prefix_len], gated, dpst=tree)
            fresh = OptAtomicityChecker(mode="thorough")
            replay_memory_events(stream[:prefix_len], fresh, dpst=tree)
            assert set(gated.report.locations()) <= set(fresh.report.locations())
        final_gated = OptAtomicityChecker()
        replay_memory_events(stream, final_gated, dpst=tree)
        final_fresh = OptAtomicityChecker(mode="thorough")
        replay_memory_events(stream, final_fresh, dpst=tree)
        assert set(final_gated.report.locations()) == set(
            final_fresh.report.locations()
        )


class TestVersionCounterSemantics:
    def test_version_survives_dropped_updates(self):
        """An access that changes nothing must not bump the version (else
        gating would degrade to never-skip)."""
        from types import SimpleNamespace

        checker = OptAtomicityChecker()
        engine = SimpleNamespace(parallel=lambda x, y: True)
        checker.on_run_begin(SimpleNamespace(engine=engine, annotations=None))
        for step in (1, 2):
            checker.on_memory(MemoryEvent(step, step, step, "X", READ))
        space = checker._gs["X"]
        version = space.version
        checker.on_memory(MemoryEvent(3, 3, 3, "X", READ))  # dropped
        assert space.R2.step == 2
        assert space.version == version
