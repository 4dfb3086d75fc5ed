"""Trace replay: offline == online, and permutation invariance.

The optimized checker's verdict must be identical when a recorded trace is
replayed in any *legal* alternative order (a schedule the explorer deems
possible) -- the operational form of the paper's schedule-insensitivity
claim.
"""

import pytest

from repro.checker import BasicAtomicityChecker, OptAtomicityChecker, VelodromeChecker
from repro.errors import TraceError
from repro.runtime import TaskProgram, run_program
from repro.session import CheckSession
from repro.trace.explore import InterleavingExplorer
from repro.trace.replay import replay_memory_events
from repro.trace.trace import Trace


def record(body, initial=None):
    result = run_program(
        TaskProgram(body, initial_memory=initial or {}), record_trace=True
    )
    return result


def rmw_vs_writer(ctx):
    def rmw(inner):
        value = inner.read("X")
        inner.write("X", value + 1)

    def writer(inner):
        inner.write("X", 100)

    ctx.spawn(rmw)
    ctx.spawn(writer)
    ctx.sync()


class TestOfflineEqualsOnline:
    @pytest.mark.parametrize(
        "make_checker",
        [OptAtomicityChecker, BasicAtomicityChecker, VelodromeChecker],
        ids=["optimized", "basic", "velodrome"],
    )
    def test_replay_matches_live(self, make_checker):
        live_checker = make_checker()
        result = run_program(
            TaskProgram(rmw_vs_writer), observers=[live_checker], record_trace=True
        )
        replayed = CheckSession(result.trace, checker=make_checker()).check()
        assert set(replayed.locations()) == set(live_checker.report.locations())
        assert len(replayed) == len(live_checker.report)


class TestPermutationInvariance:
    def test_every_legal_order_same_verdict(self):
        result = record(rmw_vs_writer)
        explorer = InterleavingExplorer(result.trace)
        verdicts = set()
        for schedule in explorer.schedules():
            checker = OptAtomicityChecker()
            report = replay_memory_events(schedule, checker, dpst=result.trace.dpst)
            verdicts.add(frozenset(report.locations()))
        assert verdicts == {frozenset({"X"})}

    def test_velodrome_is_order_sensitive(self):
        """The contrast: some legal orders show Velodrome the cycle, the
        serial ones do not."""
        result = record(rmw_vs_writer)
        explorer = InterleavingExplorer(result.trace)
        verdicts = set()
        for schedule in explorer.schedules():
            checker = VelodromeChecker()
            report = replay_memory_events(schedule, checker)
            verdicts.add(bool(report))
        assert verdicts == {True, False}


class TestReplayGuards:
    def test_dpst_checker_requires_tree(self):
        trace = Trace([], dpst=None)
        with pytest.raises(TraceError):
            CheckSession(trace, checker=OptAtomicityChecker()).check()

    def test_velodrome_replays_without_tree(self):
        trace = Trace([], dpst=None)
        report = CheckSession(trace, checker=VelodromeChecker()).check()
        assert not report
