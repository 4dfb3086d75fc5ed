"""Optimized checker: the Figure 10 walkthrough and unit behaviours.

The strongest fidelity test reproduces the paper's Figure 10 trace (the
Figure 1 program under the schedule 1, 4, 9, 10, 6, 7, 8) and asserts the
exact final contents of the global and local metadata spaces for X.
"""

import pytest

from repro.checker import OptAtomicityChecker
from repro.checker.annotations import AtomicAnnotations
from repro.dpst import ArrayDPST, NodeKind
from repro.errors import CheckerError
from repro.report import READ, WRITE
from repro.runtime import SerialExecutor, TaskProgram, run_program
from repro.runtime.events import MemoryEvent
from repro.runtime.observer import RuntimeObserver
from repro.trace.replay import replay_memory_events

from tests.conftest import build_figure2


def mem(seq, task, step, loc, access, lockset=()):
    return MemoryEvent(seq, task, step, loc, access, lockset)


class TestFigure10Walkthrough:
    """Feed the exact Figure 5/10 trace and inspect the metadata."""

    def setup_method(self):
        self.tree = ArrayDPST()
        s11, f12, a2, s2, s12, a3, s3 = build_figure2(self.tree)
        self.s11, self.s2, self.s12, self.s3 = s11, s2, s12, s3
        # Trace of Figure 5: (1) S11 W X, (4) S12 touches Y only,
        # (9) S3 W X, (10) S3 W Y, (6) S2 R X, (7) local, (8) S2 W X.
        self.events = [
            mem(0, 1, s11, "X", WRITE),
            mem(1, 1, s12, "Y", WRITE),
            mem(2, 3, s3, "X", WRITE),
            mem(3, 3, s3, "Y", WRITE),
            mem(4, 2, s2, "X", READ),
            mem(5, 2, s2, "X", WRITE),
        ]

    def run_checker(self):
        checker = OptAtomicityChecker()
        replay_memory_events(self.events, checker, dpst=self.tree)
        return checker

    def test_violation_detected(self):
        checker = self.run_checker()
        assert len(checker.report) == 1
        violation = checker.report.violations[0]
        assert violation.location == "X"
        assert violation.pattern == "RWW"
        assert violation.first.step == self.s2
        assert violation.second.step == self.s3
        assert violation.third.step == self.s2

    def test_final_global_metadata_for_x(self):
        """Final global space for X, per the Figure 8/9 pseudocode.

        Note a discrepancy in the paper itself: Figure 10 draws W1 as
        (S11, W) throughout, but Figure 8's update rule replaces an
        occupant that is *in series* with the new access -- and S11
        precedes everything, so S3's write replaces it (and S2's write
        then lands in W2).  We follow the pseudocode: the replaced S11
        entry could never witness a violation anyway (nothing is parallel
        with it), so the figure's version merely wastes the slot.
        """
        checker = self.run_checker()
        space = checker._gs["X"]
        assert space.W1.step == self.s3 and space.W1.is_write
        assert space.W2.step == self.s2 and space.W2.is_write
        assert space.R1.step == self.s2 and space.R1.is_read
        assert space.R2 is None
        assert space.RW1.step == self.s2 and space.RW1.is_read
        assert space.RW3.step == self.s2 and space.RW3.is_write
        assert space.RR1 is None and space.WR1 is None and space.WW1 is None

    def test_final_local_metadata(self):
        """Figure 10: T2 holds (S2, R) and (S2, W); T3 (S3, W).

        The figure still draws T1's (S11, W).  Here it is freed when T1
        moves to S12: no check can read an earlier step's cell again.
        """
        checker = self.run_checker()
        t1 = checker._ls[1]
        assert t1.step == self.s12 and "X" not in t1._cells
        assert t1._cells["Y"].write.step == self.s12
        assert checker.metrics()["checker.optimized.cells_freed"] == 1
        t2_cell = checker._ls[2]._cells["X"]
        assert t2_cell.read.step == self.s2
        assert t2_cell.write.step == self.s2
        t3_cell = checker._ls[3]._cells["X"]
        assert t3_cell.write.step == self.s3 and t3_cell.read is None

    def test_metadata_bounded(self):
        checker = self.run_checker()
        assert checker.max_entries_per_location() <= 12
        assert checker.tracked_locations() == 2  # X and Y


class TestDispatch:
    def test_requires_dpst(self):
        from repro.runtime.executor import RunContext
        from repro.runtime.shadow import ShadowMemory
        from repro.runtime.locks import LockTable

        checker = OptAtomicityChecker()
        context = RunContext(None, None, ShadowMemory(), LockTable(), None)
        with pytest.raises(CheckerError):
            checker.on_run_begin(context)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            OptAtomicityChecker(mode="sloppy")

    def test_annotation_filtering(self):
        tree = ArrayDPST()
        _, _, a2, s2, _, a3, s3 = build_figure2(tree)
        events = [
            mem(0, 2, s2, "X", READ),
            mem(1, 2, s2, "X", WRITE),
            mem(2, 3, s3, "X", WRITE),
            mem(3, 2, s2, "Y", READ),
            mem(4, 2, s2, "Y", WRITE),
            mem(5, 3, s3, "Y", WRITE),
        ]
        annotations = AtomicAnnotations().annotate("Y")
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree, annotations=annotations)
        assert checker.report.locations() == ["Y"]


class TestInterleaverOrderings:
    """The violation must be found whichever side appears first."""

    def build_tree(self):
        tree = ArrayDPST()
        _, _, a2, s2, _, a3, s3 = build_figure2(tree)
        return tree, s2, s3

    def test_pair_then_interleaver(self):
        tree, s2, s3 = self.build_tree()
        events = [
            mem(0, 2, s2, "X", READ),
            mem(1, 2, s2, "X", WRITE),
            mem(2, 3, s3, "X", WRITE),
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert len(checker.report) == 1

    def test_interleaver_then_pair(self):
        tree, s2, s3 = self.build_tree()
        events = [
            mem(0, 3, s3, "X", WRITE),
            mem(1, 2, s2, "X", READ),
            mem(2, 2, s2, "X", WRITE),
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert len(checker.report) == 1

    def test_interleaver_physically_between(self):
        tree, s2, s3 = self.build_tree()
        events = [
            mem(0, 2, s2, "X", READ),
            mem(1, 3, s3, "X", WRITE),
            mem(2, 2, s2, "X", WRITE),
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert len(checker.report) == 1


class TestLockHandling:
    def build_tree(self):
        tree = ArrayDPST()
        _, _, a2, s2, _, a3, s3 = build_figure2(tree)
        return tree, s2, s3

    def test_same_critical_section_suppresses_pair(self):
        tree, s2, s3 = self.build_tree()
        events = [
            mem(0, 2, s2, "X", READ, ("L",)),
            mem(1, 2, s2, "X", WRITE, ("L",)),
            mem(2, 3, s3, "X", WRITE, ("L",)),
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert not checker.report

    def test_versioned_reacquisition_forms_pair(self):
        tree, s2, s3 = self.build_tree()
        events = [
            mem(0, 2, s2, "X", READ, ("L",)),
            mem(1, 2, s2, "X", WRITE, ("L#1",)),
            mem(2, 3, s3, "X", WRITE, ("L",)),
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert len(checker.report) == 1

    def test_interleaver_lockset_irrelevant(self):
        tree, s2, s3 = self.build_tree()
        events = [
            mem(0, 2, s2, "X", READ),
            mem(1, 2, s2, "X", WRITE),
            mem(2, 3, s3, "X", WRITE, ("L", "M")),
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert len(checker.report) == 1

    def test_overlapping_locksets_suppress(self):
        tree, s2, s3 = self.build_tree()
        events = [
            mem(0, 2, s2, "X", READ, ("L", "M")),
            mem(1, 2, s2, "X", WRITE, ("M", "N")),  # M held throughout
            mem(2, 3, s3, "X", WRITE),
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert not checker.report


class TestSeriesSafety:
    def test_series_steps_never_reported(self):
        tree = ArrayDPST()
        s11, _, _, s2, s12, _, s3 = build_figure2(tree)
        # s11 precedes s2: interleaving impossible.
        events = [
            mem(0, 2, s2, "X", READ),
            mem(1, 2, s2, "X", WRITE),
            mem(2, 1, s11, "X", WRITE),
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert not checker.report

    def test_same_task_two_steps_not_a_pair(self):
        """Accesses in different steps of one task never form A1/A3."""
        tree = ArrayDPST()
        s11, _, _, s2, s12, _, s3 = build_figure2(tree)
        events = [
            mem(0, 1, s11, "X", READ),
            mem(1, 1, s12, "X", WRITE),  # same task, different step
            mem(2, 2, s2, "X", WRITE),   # parallel writer
        ]
        checker = OptAtomicityChecker()
        replay_memory_events(events, checker, dpst=tree)
        assert not checker.report


class TestAccounting:
    def test_entry_counts_exposed(self):
        def child(ctx):
            ctx.add("X", 1)

        def main(ctx):
            ctx.spawn(child)
            ctx.spawn(child)
            ctx.sync()

        class Probe(RuntimeObserver):
            """Samples the checker's live local entries after each access."""

            def __init__(self):
                self.samples = []

            def on_memory(self, event):
                self.samples.append(checker.total_local_entries())

        checker = OptAtomicityChecker()
        probe = Probe()
        run_program(TaskProgram(main), observers=[checker, probe])
        assert checker.tracked_locations() == 1
        assert 0 < checker.max_entries_per_location() <= 12
        # Live mid-run; every task has ended, so all freed after the run.
        assert max(probe.samples) > 0
        assert checker.total_local_entries() == 0
        assert checker.metrics()["checker.optimized.cells_freed"] > 0
        assert checker.total_global_entries() >= checker.max_entries_per_location()
