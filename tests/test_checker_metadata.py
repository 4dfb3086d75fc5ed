"""GlobalSpace / LocalSpace unit tests: slots, replacement, versions."""

from repro.checker.access import AccessEntry, TwoAccessPattern
from repro.checker.metadata import GlobalSpace, LocalCell, LocalSpace
from repro.report import READ, WRITE


def entry(step, access_type=READ):
    return AccessEntry(step=step, access_type=access_type)


def pattern(step, first=READ, second=WRITE):
    return TwoAccessPattern(entry(step, first), entry(step, second))


def parallel_all(a, b):
    return True


def series_all(a, b):
    return False


class TestSingleSlots:
    def test_first_entry_fills_r1(self):
        space = GlobalSpace()
        space.update_single("R", entry(1), parallel_all)
        assert space.R1.step == 1
        assert space.R2 is None

    def test_parallel_second_fills_r2(self):
        space = GlobalSpace()
        space.update_single("R", entry(1), parallel_all)
        space.update_single("R", entry(2), parallel_all)
        assert (space.R1.step, space.R2.step) == (1, 2)

    def test_series_replaces_r1(self):
        space = GlobalSpace()
        space.update_single("R", entry(1), parallel_all)
        space.update_single("R", entry(2), series_all)
        assert space.R1.step == 2
        assert space.R2 is None

    def test_third_parallel_entry_dropped(self):
        space = GlobalSpace()
        for step in (1, 2, 3):
            space.update_single("R", entry(step), parallel_all)
        assert (space.R1.step, space.R2.step) == (1, 2)

    def test_write_slots_independent(self):
        space = GlobalSpace()
        space.update_single("R", entry(1), parallel_all)
        space.update_single("W", entry(2, WRITE), parallel_all)
        assert space.R1.step == 1
        assert space.W1.step == 2
        assert list(space.read_singles()) == [space.R1]
        assert list(space.write_singles()) == [space.W1]

    def test_singles_accessor(self):
        space = GlobalSpace()
        space.update_single("W", entry(5, WRITE), parallel_all)
        first, second = space.singles("W")
        assert first.step == 5 and second is None


class TestPatternSlots:
    def test_store_into_empty(self):
        space = GlobalSpace()
        assert space.update_pattern("RW", pattern(1), parallel_all)
        assert space.RW.step == 1

    def test_parallel_occupant_blocks_in_paper_mode(self):
        space = GlobalSpace()
        space.update_pattern("RW", pattern(1), parallel_all)
        assert not space.update_pattern("RW", pattern(2), parallel_all)
        assert space.RW.step == 1

    def test_series_occupant_replaced(self):
        space = GlobalSpace()
        space.update_pattern("RW", pattern(1), parallel_all)
        assert space.update_pattern("RW", pattern(2), series_all)
        assert space.RW.step == 2

    def test_thorough_mode_keeps_overflow(self):
        space = GlobalSpace()
        space.update_pattern("RW", pattern(1), parallel_all, thorough=True)
        assert space.update_pattern("RW", pattern(2), parallel_all, thorough=True)
        stored = list(space.patterns("RW"))
        assert {p.step for p in stored} == {1, 2}

    def test_thorough_same_step_not_duplicated(self):
        space = GlobalSpace()
        space.update_pattern("RW", pattern(1), parallel_all, thorough=True)
        assert not space.update_pattern("RW", pattern(1), parallel_all, thorough=True)
        assert len(list(space.patterns("RW"))) == 1

    def test_all_patterns_iterates_kinds(self):
        space = GlobalSpace()
        space.update_pattern("RR", pattern(1, READ, READ), parallel_all)
        space.update_pattern("WW", pattern(2, WRITE, WRITE), parallel_all)
        assert {p.kind for p in space.all_patterns()} == {"RR", "WW"}


class TestEntryCount:
    def test_bounded_by_twelve_in_paper_mode(self):
        space = GlobalSpace()
        for step in range(10):
            space.update_single("R", entry(step), parallel_all)
            space.update_single("W", entry(step, WRITE), parallel_all)
            for kind, (a, b) in {
                "RR": (READ, READ),
                "RW": (READ, WRITE),
                "WR": (WRITE, READ),
                "WW": (WRITE, WRITE),
            }.items():
                space.update_pattern(kind, pattern(step, a, b), parallel_all)
        assert space.entry_count() == 12

    def test_version_bumps_on_mutation(self):
        space = GlobalSpace()
        v0 = space.version
        space.update_single("R", entry(1), parallel_all)
        v1 = space.version
        assert v1 > v0
        space.update_single("R", entry(2), parallel_all)
        assert space.version > v1
        # Dropped entry (both slots parallel) must NOT bump.
        v2 = space.version
        space.update_single("R", entry(3), parallel_all)
        assert space.version == v2


class TestLocalSpace:
    def test_fresh_cell(self):
        local = LocalSpace(step=4)
        cell, had_prior = local.cell_for("X", step=4)
        assert not had_prior
        assert cell.is_empty
        assert local.step == 4

    def test_prior_detected(self):
        local = LocalSpace(4)
        cell, _ = local.cell_for("X", 4)
        cell.read = entry(4)
        cell2, had_prior = local.cell_for("X", 4)
        assert had_prior
        assert cell2 is cell

    def test_stale_cell_replaced_on_new_step(self):
        """A task's later step is a different atomic region: moving to it
        frees every cell of the earlier step."""
        local = LocalSpace(4)
        cell, _ = local.cell_for("X", 4)
        cell.read = entry(4)
        local.cell_for("Y", 4)[0].write = entry(4, WRITE)
        cell2, had_prior = local.cell_for("X", 9)
        assert not had_prior
        assert local.step == 9
        assert cell2.is_empty and cell2 is not cell
        assert local.cell_count() == 1  # Y's cell went with step 4

    def test_advance_counts_freed_cells(self):
        local = LocalSpace(4)
        local.cell_for("X", 4)
        local.cell_for("Y", 4)
        assert local.advance(9) == 2
        assert local.cell_count() == 0 and local.step == 9

    def test_entry_count(self):
        local = LocalSpace(4)
        cell, _ = local.cell_for("X", 4)
        cell.read = entry(4)
        cell.write = entry(4, WRITE)
        cell_y, _ = local.cell_for("Y", 4)
        cell_y.read = entry(4)
        assert local.entry_count() == 3
