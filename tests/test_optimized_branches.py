"""Systematic branch coverage of the optimized checker's dispatch.

One test per pseudocode branch of Figures 7, 8 and 9: every update path
of the single slots, every candidate-formation path, every check set.
These complement the behavioural tests with white-box assertions on the
metadata state after each event.
"""

import pytest

from repro.checker import OptAtomicityChecker
from repro.dpst import ArrayDPST, NodeKind, ROOT_ID
from repro.report import READ, WRITE
from repro.runtime.events import MemoryEvent
from repro.trace.replay import replay_memory_events


def mem(seq, task, step, loc, access, lockset=()):
    return MemoryEvent(seq, task, step, loc, access, lockset)


def parallel_steps(count):
    """count mutually parallel steps under one finish."""
    tree = ArrayDPST()
    steps = []
    for _ in range(count):
        async_node = tree.add_node(ROOT_ID, NodeKind.ASYNC)
        steps.append(tree.add_node(async_node, NodeKind.STEP))
    return tree, steps


def serial_then_parallel():
    """s0 precedes everything; s1, s2 mutually parallel."""
    tree = ArrayDPST()
    s0 = tree.add_node(ROOT_ID, NodeKind.STEP)
    a1 = tree.add_node(ROOT_ID, NodeKind.ASYNC)
    s1 = tree.add_node(a1, NodeKind.STEP)
    a2 = tree.add_node(ROOT_ID, NodeKind.ASYNC)
    s2 = tree.add_node(a2, NodeKind.STEP)
    return tree, s0, s1, s2


def run(tree, events, mode="paper"):
    checker = OptAtomicityChecker(mode=mode)
    replay_memory_events(events, checker, dpst=tree)
    return checker


class TestFigure7FirstAccess:
    def test_first_read_seeds_r1_and_local(self):
        tree, (s,) = parallel_steps(1)
        checker = run(tree, [mem(0, 1, s, "X", READ)])
        space = checker._gs["X"]
        assert space.R1.step == s and space.W1 is None
        cell = checker._ls[1]._cells["X"]
        assert cell.read.step == s and cell.write is None

    def test_first_write_seeds_w1_and_local(self):
        tree, (s,) = parallel_steps(1)
        checker = run(tree, [mem(0, 1, s, "X", WRITE)])
        space = checker._gs["X"]
        assert space.W1.step == s and space.R1 is None
        cell = checker._ls[1]._cells["X"]
        assert cell.write.step == s and cell.read is None

    def test_no_lca_queries_on_first_access(self):
        tree, (s,) = parallel_steps(1)
        checker = OptAtomicityChecker()
        from repro.dpst import LCAEngine
        from repro.trace.replay import _make_context

        context = _make_context(tree, None)
        checker.on_run_begin(context)
        checker.on_memory(mem(0, 1, s, "X", WRITE))
        assert context.engine.stats.queries == 0


class TestFigure8SingleSlots:
    def test_parallel_second_reader_fills_r2(self):
        tree, (a, b) = parallel_steps(2)
        checker = run(tree, [mem(0, 1, a, "X", READ), mem(1, 2, b, "X", READ)])
        space = checker._gs["X"]
        assert (space.R1.step, space.R2.step) == (a, b)

    def test_series_second_reader_replaces_r1(self):
        tree, s0, s1, s2 = serial_then_parallel()
        checker = run(tree, [mem(0, 1, s0, "X", READ), mem(1, 2, s1, "X", READ)])
        space = checker._gs["X"]
        assert space.R1.step == s1
        assert space.R2 is None

    def test_third_parallel_reader_dropped(self):
        tree, (a, b, c) = parallel_steps(3)
        checker = run(
            tree,
            [
                mem(0, 1, a, "X", READ),
                mem(1, 2, b, "X", READ),
                mem(2, 3, c, "X", READ),
            ],
        )
        space = checker._gs["X"]
        assert (space.R1.step, space.R2.step) == (a, b)

    def test_write_slots_mirror(self):
        tree, (a, b, c) = parallel_steps(3)
        checker = run(
            tree,
            [
                mem(0, 1, a, "X", WRITE),
                mem(1, 2, b, "X", WRITE),
                mem(2, 3, c, "X", WRITE),
            ],
        )
        space = checker._gs["X"]
        assert (space.W1.step, space.W2.step) == (a, b)


class TestFigure8InterleaverChecks:
    def test_read_checks_only_ww(self):
        """A first-access read must break WW but not RW/WR/RR."""
        tree, (a, b, c) = parallel_steps(3)
        base = [
            mem(0, 1, a, "X", READ),
            mem(1, 1, a, "X", WRITE),   # a's RW pattern stored
        ]
        checker = run(tree, base + [mem(2, 2, b, "X", READ)])
        assert not checker.report  # (R, R, W) serializable

        base_ww = [
            mem(0, 1, a, "X", WRITE),
            mem(1, 1, a, "X", WRITE),   # a's WW pattern stored
        ]
        checker = run(tree, base_ww + [mem(2, 2, b, "X", READ)])
        assert {v.pattern for v in checker.report.violations} == {"WRW"}

    def test_write_checks_all_four_kinds(self):
        tree, (a, b, c) = parallel_steps(3)
        combos = {
            (READ, READ): "RWR",
            (READ, WRITE): "RWW",
            (WRITE, READ): "WWR",
            (WRITE, WRITE): "WWW",
        }
        for (first, second), expected in combos.items():
            events = [
                mem(0, 1, a, "X", first),
                mem(1, 1, a, "X", second),
                mem(2, 2, b, "X", WRITE),
            ]
            checker = run(tree, events)
            assert expected in {v.pattern for v in checker.report.violations}, (
                first,
                second,
            )


class TestFigure9CandidateChecks:
    def test_rr_candidate_vs_write_singles(self):
        tree, (a, b) = parallel_steps(2)
        events = [
            mem(0, 2, b, "X", WRITE),   # W1 = b
            mem(1, 1, a, "X", READ),
            mem(2, 1, a, "X", READ),    # RR candidate vs W1 -> RWR
        ]
        checker = run(tree, events)
        assert {v.pattern for v in checker.report.violations} == {"RWR"}

    def test_wr_candidate_vs_write_singles(self):
        tree, (a, b) = parallel_steps(2)
        events = [
            mem(0, 2, b, "X", WRITE),
            mem(1, 1, a, "X", WRITE),
            mem(2, 1, a, "X", READ),    # WR candidate vs b's W -> WWR
        ]
        checker = run(tree, events)
        assert "WWR" in {v.pattern for v in checker.report.violations}

    def test_rw_candidate_vs_write_singles(self):
        tree, (a, b) = parallel_steps(2)
        events = [
            mem(0, 2, b, "X", WRITE),
            mem(1, 1, a, "X", READ),
            mem(2, 1, a, "X", WRITE),   # RW candidate vs b's W -> RWW
        ]
        checker = run(tree, events)
        assert "RWW" in {v.pattern for v in checker.report.violations}

    def test_ww_candidate_vs_read_and_write_singles(self):
        tree, (a, b, c) = parallel_steps(3)
        events = [
            mem(0, 2, b, "X", WRITE),   # W1
            mem(1, 3, c, "X", READ),    # R1
            mem(2, 1, a, "X", WRITE),
            mem(3, 1, a, "X", WRITE),   # WW candidate vs both singles
        ]
        checker = run(tree, events)
        patterns = {v.pattern for v in checker.report.violations}
        assert "WWW" in patterns  # vs b's write
        assert "WRW" in patterns  # vs c's read

    def test_rr_candidate_ignores_read_singles(self):
        tree, (a, b) = parallel_steps(2)
        events = [
            mem(0, 2, b, "X", READ),    # R1 only
            mem(1, 1, a, "X", READ),
            mem(2, 1, a, "X", READ),    # RR candidate: (R,R,R) serializable
        ]
        checker = run(tree, events)
        assert not checker.report

    def test_candidate_vs_series_single_ignored(self):
        tree, s0, s1, s2 = serial_then_parallel()
        events = [
            mem(0, 1, s0, "X", WRITE),  # W1 = s0, series with everyone
            mem(1, 2, s1, "X", READ),
            mem(2, 2, s1, "X", READ),   # candidate vs s0: not parallel
        ]
        checker = run(tree, events)
        assert not checker.report


class TestFigure9PatternPromotion:
    def test_candidate_promoted_into_empty_slot(self):
        tree, (a, b) = parallel_steps(2)
        events = [mem(0, 1, a, "X", READ), mem(1, 1, a, "X", WRITE)]
        checker = run(tree, events)
        space = checker._gs["X"]
        assert (space.RW1, space.RW3) == (events[0], events[1])

    def test_parallel_occupant_blocks_in_paper_mode(self):
        tree, (a, b) = parallel_steps(2)
        events = [
            mem(0, 1, a, "X", READ),
            mem(1, 1, a, "X", WRITE),
            mem(2, 2, b, "X", READ),
            mem(3, 2, b, "X", WRITE),
        ]
        checker = run(tree, events)
        assert checker._gs["X"].RW1.step == a  # b's candidate dropped

    def test_series_occupant_replaced(self):
        tree, s0, s1, s2 = serial_then_parallel()
        events = [
            mem(0, 1, s0, "X", READ),
            mem(1, 1, s0, "X", WRITE),  # s0's RW stored
            mem(2, 2, s1, "X", READ),
            mem(3, 2, s1, "X", WRITE),  # s1 in series with s0: replaces
        ]
        checker = run(tree, events)
        assert checker._gs["X"].RW1.step == s1

    def test_thorough_keeps_both(self):
        tree, (a, b) = parallel_steps(2)
        events = [
            mem(0, 1, a, "X", READ),
            mem(1, 1, a, "X", WRITE),
            mem(2, 2, b, "X", READ),
            mem(3, 2, b, "X", WRITE),
        ]
        checker = run(tree, events, mode="thorough")
        stored = list(checker.patterns("X", "RW"))
        assert stored == [(events[0], events[1]), (events[2], events[3])]
        assert {first.step for first, _ in stored} == {a, b}


class TestLocalSpaceMaintenance:
    def test_first_read_after_write_recorded(self):
        tree, (a,) = parallel_steps(1)
        checker = run(tree, [mem(0, 1, a, "X", WRITE), mem(1, 1, a, "X", READ)])
        cell = checker._ls[1]._cells["X"]
        assert cell.write.step == a
        assert cell.read.step == a

    def test_local_keeps_first_access_not_latest(self):
        tree, (a,) = parallel_steps(1)
        events = [
            mem(0, 1, a, "X", READ, ("L",)),
            mem(1, 1, a, "X", READ),        # later read must not displace
        ]
        checker = run(tree, events)
        cell = checker._ls[1]._cells["X"]
        assert cell.read is events[0]
        assert cell.read.lockset == ("L",)
