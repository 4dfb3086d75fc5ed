"""Velodrome + interleaving exploration (the paper's required combination).

Demonstrates the Section 4 argument quantitatively: the combination can
match the optimized checker's verdict, but only by exploring many
schedules of the recorded trace.
"""

import pytest

from repro.checker import ExploringVelodrome, OptAtomicityChecker, VelodromeChecker
from repro.runtime import SerialExecutor, TaskProgram, run_program
from repro.suite import all_cases


def rmw_vs_writer():
    def rmw(ctx):
        value = ctx.read("X")
        ctx.write("X", value + 1)

    def writer(ctx):
        ctx.write("X", 100)

    def main(ctx):
        ctx.spawn(rmw)
        ctx.spawn(writer)
        ctx.sync()

    return TaskProgram(main)


class TestFindsHiddenViolations:
    def test_plain_velodrome_misses_exploring_finds(self):
        plain = run_program(rmw_vs_writer(), observers=[VelodromeChecker()])
        assert not plain.report()

        exploring = ExploringVelodrome()
        run_program(rmw_vs_writer(), observers=[exploring])
        assert exploring.violation_locations() == {"X"}

    def test_matches_optimized_checker(self):
        exploring = ExploringVelodrome()
        optimized = OptAtomicityChecker()
        run_program(rmw_vs_writer(), observers=[exploring, optimized])
        assert exploring.violation_locations() == set(
            optimized.report.locations()
        )

    def test_explores_multiple_schedules(self):
        exploring = ExploringVelodrome()
        run_program(rmw_vs_writer(), observers=[exploring])
        # 3 memory events, 2 steps: 3 distinct interleavings.
        assert exploring.schedules_explored == 3
        assert not exploring.truncated

    def test_safe_program_stays_quiet(self):
        def rmw(ctx):
            value = ctx.read("X")
            ctx.write("X", value + 1)

        def main(ctx):
            ctx.spawn(rmw)
            ctx.sync()
            ctx.spawn(rmw)
            ctx.sync()

        exploring = ExploringVelodrome()
        run_program(TaskProgram(main), observers=[exploring])
        assert not exploring.report
        assert exploring.schedules_explored == 1


class TestCost:
    def test_schedule_count_grows_fast(self):
        """The quantity the paper's comparison hinges on."""

        def writer(ctx, i):
            ctx.write("X", i)

        def main(ctx):
            for i in range(5):
                ctx.spawn(writer, i)
            ctx.sync()

        exploring = ExploringVelodrome(max_schedules=500)
        run_program(TaskProgram(main), observers=[exploring])
        # 5 parallel single-write steps: 5! = 120 schedules, explored in
        # full -- versus the optimized checker's single pass.
        assert exploring.schedules_explored == 120

    def test_truncation_respected(self):
        def writer(ctx, i):
            ctx.write("X", i)

        def main(ctx):
            for i in range(6):
                ctx.spawn(writer, i)
            ctx.sync()

        exploring = ExploringVelodrome(max_schedules=50)
        run_program(TaskProgram(main), observers=[exploring])
        assert exploring.schedules_explored == 50
        assert exploring.truncated

    def test_lock_protected_program_with_locks_in_trace(self):
        def bump(ctx):
            with ctx.lock("L"):
                ctx.add("X", 1)

        def main(ctx):
            ctx.spawn(bump)
            ctx.spawn(bump)
            ctx.sync()

        exploring = ExploringVelodrome()
        run_program(TaskProgram(main), observers=[exploring])
        # Mutual exclusion leaves only the two serial orders.
        assert exploring.schedules_explored == 2
        assert not exploring.report


class TestFactory:
    def test_make_checker_names(self):
        from repro.checker import make_checker

        assert isinstance(make_checker("velodrome+explorer"), ExploringVelodrome)
        from repro.checker import RaceDetector

        assert isinstance(make_checker("racedetector"), RaceDetector)
        with pytest.raises(ValueError):
            make_checker("psychic")


class TestOfflineAgreesWithOnline:
    """The offline pipeline feeds the explorer lock events too, so a
    recorded trace gets the online verdict: no lock-protected program is
    flagged offline only."""

    @pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
    def test_suite_verdicts_agree(self, case):
        from repro.session import CheckSession

        program = case.build()
        explorer = ExploringVelodrome()
        result = run_program(program, observers=[explorer], record_trace=True)
        online = explorer.violation_locations()
        session = CheckSession(result.trace, annotations=program.annotations)
        assert set(session.check("velodrome+explorer").locations()) == online
        replayed = CheckSession(
            result.trace,
            checker=ExploringVelodrome(),
            annotations=program.annotations,
        ).check()
        assert set(replayed.locations()) == online
