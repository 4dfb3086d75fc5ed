"""Streaming checks: ``check(streaming=True)`` is the plain check.

The optimized checker frees dead local metadata itself, so every check
is bounded and :class:`StreamingChecker` is a pass-through: its hooks
are the inner checker's, and a streaming check -- live observer,
in-memory trace, or either trace file format, in-process or sharded --
reports exactly what the plain check reports, and shares its cache
entries.
"""

import pytest

from repro import CheckSession, TaskProgram, run_program
from repro.checker import CHECKER_FACTORIES, UnknownCheckerError, make_checker
from repro.checker.streaming import StreamingChecker
from repro.dpst import ROOT_ID, ArrayDPST, NodeKind
from repro.errors import CheckerError
from repro.obs import METRIC_NAMES, MetricsRecorder
from repro.report import READ, WRITE, normalize_report
from repro.runtime.events import MemoryEvent, TaskEndEvent
from repro.runtime.executor import SerialExecutor
from repro.suite import all_cases
from repro.trace.serialize import dump_trace, open_trace
from repro.trace.trace import Trace


def _rmw(ctx):
    value = ctx.read("X")
    ctx.write("X", value + 1)


def buggy_body(ctx):
    ctx.write("X", 0)
    ctx.spawn(_rmw)
    ctx.spawn(_rmw)
    ctx.sync()


def recorded_trace():
    return run_program(TaskProgram(buggy_body), record_trace=True).trace


def churn_trace(tasks):
    """Short-lived tasks doing locked RMWs on a few shared scalars, each
    ending before the next begins; the first two race on ``"bug"``."""
    dpst = ArrayDPST()
    events = []
    for task in range(1, tasks + 1):
        step = dpst.add_node(dpst.add_node(ROOT_ID, NodeKind.ASYNC), NodeKind.STEP)
        accesses = [("bug", ())] if task <= 2 else []
        location = ("shared", task % 4)
        accesses += [(location, (f"m{task % 4}@{task}",))] * 2
        for location, lockset in accesses:
            for access_type in (READ, WRITE):
                events.append(MemoryEvent(
                    len(events), task, step, location, access_type, lockset
                ))
        events.append(TaskEndEvent(len(events), task))
    return Trace(events, dpst=dpst)


# ---------------------------------------------------------------------------
# Construction and refusals
# ---------------------------------------------------------------------------


class TestConstruction:
    def test_kwargs_reach_inner_checker(self):
        checker = StreamingChecker(checker="optimized", mode="paper")
        assert checker.inner.mode == "paper"

    def test_capabilities_mirror_inner(self):
        checker = StreamingChecker()
        assert checker.requires_dpst == checker.inner.requires_dpst
        assert checker.location_sharded == checker.inner.location_sharded

    def test_hooks_are_the_inner_checkers(self):
        """No call per event: each hook is the inner checker's own."""
        checker = StreamingChecker()
        for hook in ("on_memory", "on_task_end", "on_run_begin", "metrics"):
            assert getattr(checker, hook) == getattr(checker.inner, hook)
        assert checker.report is checker.inner.report

    def test_not_a_registered_name(self):
        assert "streaming" not in CHECKER_FACTORIES
        with pytest.raises(UnknownCheckerError):
            make_checker("streaming")

    @pytest.mark.parametrize("inner", ["velodrome", "basic", "regiontrack"])
    def test_uncompactable_checkers_refused(self, inner):
        """Only the optimized checker frees its metadata as it goes."""
        with pytest.raises(CheckerError, match="cannot stream"):
            StreamingChecker(checker=inner)
        with pytest.raises(CheckerError, match="cannot stream"):
            CheckSession(recorded_trace()).check(inner, streaming=True)


# ---------------------------------------------------------------------------
# Equivalence: the 36-program suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.name)
def test_suite_streaming_equals_offline(case):
    program = case.build()
    trace = run_program(
        program, executor=SerialExecutor(), record_trace=True
    ).trace
    session = CheckSession(trace, annotations=program.annotations)
    offline = normalize_report(session.check(mode="thorough"))
    streamed = session.check(streaming=True, mode="thorough")
    assert normalize_report(streamed) == offline, case.name
    assert set(streamed.locations()) == set(case.expected), case.name
    assert session.reports["streaming"] is streamed


class TestSources:
    def test_file_sources_both_formats(self, tmp_path):
        trace = recorded_trace()
        offline = normalize_report(CheckSession(trace).check(mode="thorough"))
        for format, suffix in (("jsonl", ".jsonl"), ("columnar", ".trc")):
            path = tmp_path / ("t" + suffix)
            dump_trace(trace, str(path), format=format)
            report = CheckSession(str(path)).check(
                streaming=True, mode="thorough"
            )
            assert normalize_report(report) == offline, format

    def test_sharded_streaming(self, tmp_path):
        trace = recorded_trace()
        offline = normalize_report(CheckSession(trace).check(mode="thorough"))
        path = tmp_path / "t.trc"
        dump_trace(trace, str(path), format="columnar")
        for jobs in (2, 4):
            for source in (trace, str(path)):
                report = CheckSession(source, jobs=jobs).check(
                    streaming=True, mode="thorough"
                )
                assert normalize_report(report) == offline, (jobs, source)

    def test_live_observer_attachment(self):
        checker = StreamingChecker()
        result = run_program(TaskProgram(buggy_body), observers=[checker])
        assert set(result.report().locations()) == {"X"}
        offline = CheckSession(TaskProgram(buggy_body)).check()
        assert normalize_report(checker.report) == normalize_report(offline)


# ---------------------------------------------------------------------------
# The checker frees dead local metadata itself (and the wrapper adds none)
# ---------------------------------------------------------------------------


class TestCompaction:
    def test_metric_names_registered(self):
        checker = StreamingChecker()
        run_program(TaskProgram(buggy_body), observers=[checker])
        names = set(checker.metrics())
        assert names <= set(METRIC_NAMES), names - set(METRIC_NAMES)
        assert checker.metrics() == checker.inner.metrics()
        assert not [name for name in METRIC_NAMES if name.startswith("streaming.")]

    @pytest.mark.parametrize("suffix", [".jsonl", ".trc"])
    def test_every_jobs1_path_releases_ended_tasks(self, tmp_path, suffix):
        """A session over the path, its ``cache_dir=`` miss and a session
        over an open reader at ``jobs=1`` are one offline path, streaming
        or not: same report, same counters, cells freed."""
        path = str(tmp_path / ("churn" + suffix))
        dump_trace(churn_trace(tasks=250), path)

        def checked(check):
            recorder = MetricsRecorder()
            report = check(recorder)
            counters = recorder.snapshot().counters
            return (
                normalize_report(report),
                counters["checker.optimized.cells_freed"],
                counters["checker.accesses_checked"],
            )

        plain = checked(lambda rec: CheckSession(path, recorder=rec).check())
        streamed = checked(lambda rec: CheckSession(path, recorder=rec).check(
            streaming=True
        ))
        cached = checked(lambda rec: CheckSession(path, recorder=rec).check(
            streaming=True, cache_dir=str(tmp_path / "rc")
        ))
        with open_trace(path) as reader:
            from_reader = checked(lambda rec: CheckSession(
                reader, jobs=1, recorder=rec
            ).check(streaming=True))
        assert plain[1] > 0
        assert plain == streamed == cached == from_reader


# ---------------------------------------------------------------------------
# Cache: a streaming check is keyed, served and stored as the plain check
# ---------------------------------------------------------------------------


class TestCache:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("first", ["streaming", "plain"])
    def test_one_entry_serves_both(self, tmp_path, jobs, first):
        """A miss of either kind stores the entry the other kind hits."""
        path = str(tmp_path / "t.trc")
        dump_trace(recorded_trace(), path, format="columnar")
        rc = str(tmp_path / "rc")
        order = [True, False] if first == "streaming" else [False, True]
        reports = []
        for hit, streaming in enumerate(order):
            session = CheckSession(path, jobs=jobs)
            reports.append(session.check(cache_dir=rc, streaming=streaming))
            info = session.cache_info
            assert info["applied"] and info["hit"] == bool(hit), info
            name = "streaming" if streaming else "optimized"
            assert session.reports == {name: reports[-1]}
        assert reports[0].describe() == reports[1].describe()
        assert len(reports[0]) == 1
