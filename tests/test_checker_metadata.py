"""GlobalSpace / LocalSpace unit tests: slots, replacement, versions.

The spaces only hold slots; the optimized checker applies the Figures 8/9
replacement policy inline.  So these drive the checker with a stub
parallelism oracle (every pair of distinct steps parallel, or every pair
in series) and read the slots it leaves behind.
"""

from types import SimpleNamespace

from repro.checker import OptAtomicityChecker
from repro.checker.metadata import PATTERN_KINDS, GlobalSpace, LocalCell, LocalSpace
from repro.report import READ, WRITE
from repro.runtime.events import MemoryEvent


def parallel_all(a, b):
    return True


def series_all(a, b):
    return False


def checker_with(parallel, mode="paper"):
    checker = OptAtomicityChecker(mode=mode)
    engine = SimpleNamespace(parallel=parallel)
    checker.on_run_begin(SimpleNamespace(engine=engine, annotations=None))
    return checker


def feed(checker, *accesses):
    """Replay ``(step, access_type)`` accesses to ``"X"``; step *s* runs
    in task *s*.  Returns the events, in order."""
    events = []
    for seq, (step, access_type) in enumerate(accesses):
        event = MemoryEvent(seq, step, step, "X", access_type)
        checker.on_memory(event)
        events.append(event)
    return events


class TestSingleSlots:
    def test_first_entry_fills_r1(self):
        checker = checker_with(parallel_all)
        (first,) = feed(checker, (1, READ))
        space = checker._gs["X"]
        assert space.R1 is first
        assert space.R2 is None

    def test_parallel_second_fills_r2(self):
        checker = checker_with(parallel_all)
        feed(checker, (1, READ), (2, READ))
        space = checker._gs["X"]
        assert (space.R1.step, space.R2.step) == (1, 2)

    def test_series_replaces_r1(self):
        checker = checker_with(series_all)
        feed(checker, (1, READ), (2, READ))
        space = checker._gs["X"]
        assert space.R1.step == 2
        assert space.R2 is None

    def test_third_parallel_entry_dropped(self):
        checker = checker_with(parallel_all)
        feed(checker, (1, READ), (2, READ), (3, READ))
        space = checker._gs["X"]
        assert (space.R1.step, space.R2.step) == (1, 2)

    def test_write_slots_independent(self):
        checker = checker_with(parallel_all)
        read, write = feed(checker, (1, READ), (2, WRITE))
        space = checker._gs["X"]
        assert space.R1 is read and space.W1 is write
        assert space.R2 is None and space.W2 is None

    def test_singles_accessor(self):
        checker = checker_with(parallel_all)
        feed(checker, (5, WRITE))
        space = checker._gs["X"]
        assert space.W1.step == 5 and space.W2 is None


class TestPatternSlots:
    """A pattern is its A1 and A3 events, in one slot pair per kind."""

    def test_store_into_empty(self):
        checker = checker_with(parallel_all)
        read, write = feed(checker, (1, READ), (1, WRITE))
        space = checker._gs["X"]
        assert (space.RW1, space.RW3) == (read, write)
        assert checker.metrics()["checker.optimized.promotions"] == 1

    def test_parallel_occupant_blocks_in_paper_mode(self):
        checker = checker_with(parallel_all)
        read, write, _, _ = feed(
            checker, (1, READ), (1, WRITE), (2, READ), (2, WRITE)
        )
        space = checker._gs["X"]
        assert (space.RW1, space.RW3) == (read, write)
        assert list(checker.patterns("X", "RW")) == [(read, write)]
        assert checker.metrics()["checker.optimized.promotions_blocked"] == 1

    def test_series_occupant_replaced(self):
        checker = checker_with(series_all)
        _, _, read, write = feed(
            checker, (1, READ), (1, WRITE), (2, READ), (2, WRITE)
        )
        space = checker._gs["X"]
        assert (space.RW1, space.RW3) == (read, write)

    def test_thorough_mode_keeps_overflow(self):
        checker = checker_with(parallel_all, mode="thorough")
        events = feed(checker, (1, READ), (1, WRITE), (2, READ), (2, WRITE))
        assert list(checker.patterns("X", "RW")) == [
            (events[0], events[1]),
            (events[2], events[3]),
        ]
        assert checker.metrics()["checker.optimized.promotions"] == 2

    def test_thorough_same_step_not_duplicated(self):
        checker = checker_with(parallel_all, mode="thorough")
        feed(checker, (1, READ), (1, WRITE), (2, READ), (2, WRITE), (2, WRITE))
        assert [first.step for first, _ in checker.patterns("X", "RW")] == [1, 2]
        assert checker.metrics()["checker.optimized.promotions_blocked"] == 1

    def test_all_patterns_iterates_kinds(self):
        checker = checker_with(parallel_all)
        feed(checker, (1, READ), (1, READ), (2, WRITE), (2, WRITE))
        stored = {kind for kind in PATTERN_KINDS if list(checker.patterns("X", kind))}
        assert stored == {"RR", "WW"}
        space = checker._gs["X"]
        assert (space.RR1.step, space.RR3.step) == (1, 1)
        assert (space.WW1.step, space.WW3.step) == (2, 2)
        assert space.RW1 is None and space.WR1 is None
        assert space.RW3 is None and space.WR3 is None


class TestEntryCount:
    def test_bounded_by_twelve_in_paper_mode(self):
        checker = checker_with(parallel_all)
        for step in range(10):
            # R, W, R, W forms all four pattern kinds.
            feed(checker, (step, READ), (step, WRITE), (step, READ), (step, WRITE))
        space = checker._gs["X"]
        assert all(getattr(space, slot) is not None for slot in space.__slots__)
        assert space.entry_count() == 12
        assert checker.max_entries_per_location() == 12

    def test_version_bumps_on_mutation(self):
        checker = checker_with(parallel_all)
        feed(checker, (1, READ))
        space = checker._gs["X"]
        v1 = space.version
        assert v1 > 0
        feed(checker, (2, READ))
        assert space.version > v1
        # Dropped entry (both slots parallel) must NOT bump.
        v2 = space.version
        feed(checker, (3, READ))
        assert space.version == v2

    def test_fresh_space_is_empty(self):
        space = GlobalSpace()
        assert space.entry_count() == 0 and space.version == 0


class TestLocalSpace:
    def test_fresh_cell(self):
        local = LocalSpace(step=4)
        assert local.step == 4
        assert local.cell_count() == 0 and local.entry_count() == 0
        cell = LocalCell()
        assert cell.read is None and cell.write is None
        assert cell.ver_rr == cell.ver_sr == cell.ver_sw == -1

    def test_prior_detected(self):
        """A step's second access to a location finds its first in the
        same cell, and closes a pattern with it."""
        checker = checker_with(parallel_all)
        first, second = feed(checker, (4, READ), (4, READ))
        cell = checker._ls[4]._cells["X"]
        assert cell.read is first and cell.write is None
        assert list(checker.patterns("X", "RR")) == [(first, second)]

    def test_stale_cell_replaced_on_new_step(self):
        """A task's later step is a different atomic region: moving to it
        frees every cell of the earlier step."""
        checker = checker_with(parallel_all)
        checker.on_memory(MemoryEvent(0, 1, 4, "X", READ))
        checker.on_memory(MemoryEvent(1, 1, 4, "Y", WRITE))
        later = MemoryEvent(2, 1, 9, "X", READ)
        checker.on_memory(later)
        local = checker._ls[1]
        assert local.step == 9
        assert local.cell_count() == 1  # Y's cell went with step 4
        assert local._cells["X"].read is later
        assert checker.metrics()["checker.optimized.cells_freed"] == 2

    def test_advance_counts_freed_cells(self):
        local = LocalSpace(4)
        local._cells["X"] = LocalCell()
        local._cells["Y"] = LocalCell()
        assert local.advance(9) == 2
        assert local.cell_count() == 0 and local.step == 9

    def test_entry_count(self):
        local = LocalSpace(4)
        cell = local._cells["X"] = LocalCell()
        cell.read = MemoryEvent(0, 1, 4, "X", READ)
        cell.write = MemoryEvent(1, 1, 4, "X", WRITE)
        cell_y = local._cells["Y"] = LocalCell()
        cell_y.read = MemoryEvent(2, 1, 4, "Y", READ)
        assert local.entry_count() == 3
