"""Online/streaming checking: windowed compaction is observationally
invisible.

The contract under test: a streaming check -- live observer, in-memory
trace, or either trace file format, in-process or sharded -- reports
exactly what the offline optimized checker reports, at *every* window
(including ``window=1``, where a sweep follows every event, and the
unbounded window, where no sweep ever fires).  What the window changes is
peak live metadata, which ``benchmarks/bench_streaming.py`` measures; what
it must never change is the verdict.
"""

import pytest

from repro import CheckSession, TaskProgram, run_program
from repro.checker import make_checker
from repro.checker.streaming import DEFAULT_WINDOW, StreamingChecker
from repro.dpst import ROOT_ID, ArrayDPST, NodeKind
from repro.errors import CheckerError
from repro.obs import METRIC_NAMES, MetricsRecorder
from repro.report import READ, WRITE, normalize_report
from repro.runtime.events import MemoryEvent, TaskEndEvent
from repro.runtime.executor import SerialExecutor
from repro.suite import all_cases
from repro.trace.serialize import dump_trace, open_trace
from repro.trace.trace import Trace

WINDOWS = (1, 8, 64, 0)  # 0 = unbounded, via the session's window= mapping


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
    def test_registered_with_factory(self):
        checker = make_checker("streaming")
        assert isinstance(checker, StreamingChecker)
        assert checker.window == DEFAULT_WINDOW

    def test_kwargs_reach_inner_checker(self):
        checker = StreamingChecker(window=8, checker="optimized", mode="paper")
        assert checker.inner.mode == "paper"

    def test_capabilities_mirror_inner(self):
        checker = StreamingChecker()
        assert checker.requires_dpst == checker.inner.requires_dpst
        assert checker.location_sharded == checker.inner.location_sharded

    @pytest.mark.parametrize("window", [0, -1, 2.5, "8"])
    def test_bad_window_refused(self, window):
        with pytest.raises(CheckerError):
            StreamingChecker(window=window)

    def test_unbounded_window_is_none(self):
        assert StreamingChecker(window=None).window is None

    @pytest.mark.parametrize("inner", ["velodrome", "basic", "regiontrack"])
    def test_uncompactable_checkers_refused(self, inner):
        with pytest.raises(CheckerError, match="cannot stream"):
            StreamingChecker(checker=inner)

    def test_window_without_streaming_refused_by_session(self):
        with pytest.raises(CheckerError, match="streaming=True"):
            CheckSession(recorded_trace()).check(window=8)


# ---------------------------------------------------------------------------
# Equivalence: the 36-program suite, every window
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.name)
def test_suite_streaming_equals_offline(case):
    program = case.build()
    trace = run_program(
        program, executor=SerialExecutor(), record_trace=True
    ).trace
    session = CheckSession(trace, annotations=program.annotations)
    offline = normalize_report(session.check(mode="thorough"))
    for window in WINDOWS:
        streamed = session.check(streaming=True, window=window, mode="thorough")
        assert normalize_report(streamed) == offline, (case.name, window)
        assert set(streamed.locations()) == set(case.expected), (case.name, window)


class TestSources:
    def test_file_sources_both_formats(self, tmp_path):
        trace = recorded_trace()
        offline = normalize_report(CheckSession(trace).check(mode="thorough"))
        for format, suffix in (("jsonl", ".jsonl"), ("columnar", ".trc")):
            path = tmp_path / ("t" + suffix)
            dump_trace(trace, str(path), format=format)
            for window in WINDOWS:
                report = CheckSession(str(path)).check(
                    streaming=True, window=window, mode="thorough"
                )
                assert normalize_report(report) == offline, (format, window)

    def test_sharded_streaming(self, tmp_path):
        trace = recorded_trace()
        offline = normalize_report(CheckSession(trace).check(mode="thorough"))
        path = tmp_path / "t.trc"
        dump_trace(trace, str(path), format="columnar")
        for source in (trace, str(path)):
            report = CheckSession(source, jobs=4).check(
                streaming=True, window=1, mode="thorough"
            )
            assert normalize_report(report) == offline

    def test_live_observer_attachment(self):
        checker = StreamingChecker(window=1)
        result = run_program(TaskProgram(buggy_body), observers=[checker])
        assert set(result.report().locations()) == {"X"}
        offline = CheckSession(TaskProgram(buggy_body)).check()
        assert normalize_report(checker.report) == normalize_report(offline)

    def test_default_window_used_when_unspecified(self):
        report = CheckSession(recorded_trace()).check(streaming=True)
        assert set(report.locations()) == {"X"}


# ---------------------------------------------------------------------------
# Compaction actually happens (and is invisible)
# ---------------------------------------------------------------------------


class TestCompaction:
    def _many_tasks_program(self):
        def body(ctx):
            def worker(inner, i):
                with inner.lock("m"):
                    value = inner.read("X")
                    inner.write("X", value + 1)
                inner.write(("private", i), i)

            ctx.write("X", 0)
            for i in range(12):
                ctx.spawn(worker, i)
                ctx.sync()

        return TaskProgram(body)

    def test_sweeps_fire_and_evict(self):
        trace = run_program(
            self._many_tasks_program(), executor=SerialExecutor(), record_trace=True
        ).trace
        recorder = MetricsRecorder()
        session = CheckSession(trace, recorder=recorder)
        session.check(streaming=True, window=1)
        counters = recorder.snapshot().counters
        assert counters["streaming.events"] == len(trace.memory_events())
        assert counters["streaming.compactions"] >= counters["streaming.events"]
        # The checker frees dead cells itself, so the sweeps find none.
        assert counters["checker.optimized.cells_freed"] > 0
        assert counters["streaming.evicted"] == 0

    def test_unbounded_window_never_sweeps(self):
        trace = recorded_trace()
        recorder = MetricsRecorder()
        CheckSession(trace, recorder=recorder).check(streaming=True, window=0)
        counters = recorder.snapshot().counters
        assert counters["streaming.compactions"] == 0
        assert counters["streaming.evicted"] == 0

    def test_metric_names_registered(self):
        checker = StreamingChecker(window=1)
        run_program(TaskProgram(buggy_body), observers=[checker])
        names = set(checker.metrics())
        assert names <= set(METRIC_NAMES), names - set(METRIC_NAMES)
        assert {
            "streaming.events",
            "streaming.compactions",
            "streaming.evicted",
            "streaming.peak_window",
        } <= names

    @pytest.mark.parametrize("suffix", [".jsonl", ".trc"])
    def test_every_jobs1_path_releases_ended_tasks(self, tmp_path, suffix):
        """A session over the path, its ``cache_dir=`` variant (which a
        streaming check bypasses) and a session over an open reader at
        ``jobs=1`` are one offline path: same report, same cells freed."""
        path = str(tmp_path / ("churn" + suffix))
        dump_trace(churn_trace(tasks=250), path)

        def streamed(check):
            recorder = MetricsRecorder()
            report = check(recorder)
            counters = recorder.snapshot().counters
            return (
                normalize_report(report),
                counters["checker.optimized.cells_freed"],
                counters["streaming.peak_window"],
            )

        session = streamed(lambda rec: CheckSession(path, recorder=rec).check(
            streaming=True, window=64
        ))
        bypassed = streamed(lambda rec: CheckSession(path, recorder=rec).check(
            streaming=True, window=64, cache_dir=str(tmp_path / "rc")
        ))
        with open_trace(path) as reader:
            from_reader = streamed(lambda rec: CheckSession(
                reader, jobs=1, recorder=rec
            ).check(streaming=True, window=64))
        assert session[1] > 0
        assert session == bypassed == from_reader
        assert not (tmp_path / "rc").exists()  # bypassed: nothing stored

    def test_events_counter_partitions_across_shards(self, tmp_path):
        """``streaming.events`` is shard-summable: jobs=4 totals jobs=1."""
        trace = recorded_trace()
        path = tmp_path / "t.trc"
        dump_trace(trace, str(path), format="columnar")

        def events(jobs):
            recorder = MetricsRecorder()
            CheckSession(str(path), jobs=jobs, recorder=recorder).check(
                streaming=True, window=2
            )
            return recorder.snapshot().counters["streaming.events"]

        assert events(1) == events(4) == len(trace.memory_events())


# ---------------------------------------------------------------------------
# Cache interaction: streaming always bypasses, loudly
# ---------------------------------------------------------------------------


class TestCacheBypass:
    def test_streaming_bypasses_result_cache(self, tmp_path):
        trace = recorded_trace()
        session = CheckSession(trace)
        session.check(streaming=True, cache_dir=str(tmp_path))
        info = session.cache_info
        assert info["requested"] and not info["applied"] and not info["hit"]
        assert "streaming" in info["reason"]
        # Nothing was stored: a later offline check through the same
        # directory must be a miss, not a bogus hit.
        offline_session = CheckSession(trace)
        offline_session.check(cache_dir=str(tmp_path))
        assert offline_session.cache_info["applied"]
        assert not offline_session.cache_info["hit"]
