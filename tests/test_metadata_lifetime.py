"""Local metadata lives only as long as its step and its task.

The optimized checker frees a task's local cells when the task moves to
its next step and drops the task's whole local space at its end event,
so live local metadata is bounded by what the live tasks' current steps
touched -- for every check, online or offline, at any ``jobs``.  Task
ends reach every shard, through one checking view of the trace readers.
"""

import gc

import pytest

from repro import CheckSession, TaskProgram, run_program
from repro.checker import OptAtomicityChecker
from repro.obs import MetricsRecorder
from repro.runtime.events import MemoryEvent, TaskEndEvent
from repro.trace.serialize import dump_trace, open_trace, shard_for_location

TASKS = 200


def locked_rmw_program():
    """200 short tasks, each a locked RMW on one of four shared scalars
    plus a write to its own cell; spawned ten at a time."""

    def worker(ctx, i):
        with ctx.lock("m"):
            ctx.add(("shared", i % 4), 1)
        ctx.write(("own", i), i)

    def main(ctx):
        for i in range(TASKS):
            ctx.spawn(worker, i)
            if i % 10 == 9:
                ctx.sync()

    return TaskProgram(
        main, initial_memory={("shared", k): 0 for k in range(4)}
    )


class BoundProbe(OptAtomicityChecker):
    """The optimized checker, sampling its live local entries after every
    event against the bound: two per location that a live task touched in
    its current step.  The samples travel back as counters, so a probe
    in a shard worker reports through the merged metrics."""

    def __init__(self):
        super().__init__()
        self._current = {}  # task -> (step, locations touched in it)
        self._samples = 0
        self._over_bound = 0
        self._peak = 0

    def on_memory(self, event):
        super().on_memory(event)
        step, touched = self._current.get(event.task, (None, None))
        if step != event.step:
            touched = set()
            self._current[event.task] = (event.step, touched)
        touched.add(event.location)
        self._sample()

    def on_task_end(self, event):
        super().on_task_end(event)
        self._current.pop(event.task, None)
        self._sample()

    def _sample(self):
        live = self.total_local_entries()
        bound = 2 * sum(len(touched) for _, touched in self._current.values())
        self._samples += 1
        self._over_bound += live > bound
        self._peak = max(self._peak, live)

    def metrics(self):
        merged = super().metrics()
        merged["probe.samples"] = self._samples
        merged["probe.over_bound"] = self._over_bound
        merged["probe.peak"] = self._peak
        return merged


class TestLiveEntriesBound:
    """Live local entries never exceed two per location touched in a
    live task's current step, and are 0 once the run is over."""

    def assert_bounded(self, counters):
        assert counters["probe.samples"] > 0
        assert counters["probe.peak"] > 0
        assert counters["probe.over_bound"] == 0
        assert counters["checker.optimized.local_entries"] == 0
        assert counters["checker.optimized.cells_freed"] > 0

    def test_online(self):
        probe = BoundProbe()
        run_program(locked_rmw_program(), observers=[probe])
        self.assert_bounded(probe.metrics())

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("suffix", [".jsonl", ".trc"])
    def test_offline(self, tmp_path, suffix, jobs):
        path = str(tmp_path / ("churn" + suffix))
        dump_trace(run_program(locked_rmw_program(), record_trace=True).trace, path)
        recorder = MetricsRecorder()
        CheckSession(
            path, checker=BoundProbe, jobs=jobs, recorder=recorder
        ).check()
        self.assert_bounded(recorder.snapshot().counters)


def reachable_locksets(checker):
    """The distinct non-empty lockset tuples of the events reachable from
    *checker* through its own state: containers, ``repro.checker``
    objects and the events they hold (not the engine, the report or
    functions, which hold no event of the checker's).  The runtime builds
    one tuple per lock version a task holds, so a checker that kept an
    event per version would show one tuple per version here."""
    found = {}
    seen = set()
    stack = [checker]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, MemoryEvent):
            if obj.lockset:
                found[id(obj.lockset)] = obj.lockset
            continue
        if isinstance(obj, (dict, list, tuple, set)) or type(
            obj
        ).__module__.startswith("repro.checker"):
            stack.extend(gc.get_referents(obj))
    return list(found.values())


class TestLocksetCache:
    VERSIONS = 10_000

    def program(self):
        def child(ctx):
            for _ in range(self.VERSIONS):
                with ctx.lock("m"):
                    ctx.read("X")

        def main(ctx):
            ctx.write("X", 0)
            ctx.spawn(child)
            ctx.sync()

        return TaskProgram(main)

    def assert_none_retained(self, checker):
        # The one location's global entries may hold a lockset each; the
        # 10^4 versions the task read under are gone with the task.
        locksets = reachable_locksets(checker)
        assert locksets, "the probe must see the stored events' locksets"
        assert len(locksets) <= checker.total_global_entries()
        assert checker.total_local_entries() == 0

    def test_online(self):
        checker = OptAtomicityChecker()
        result = run_program(self.program(), observers=[checker])
        assert result.report().locations() == []
        self.assert_none_retained(checker)

    def test_offline(self):
        trace = run_program(self.program(), record_trace=True).trace
        checker = OptAtomicityChecker()
        CheckSession(trace, checker=checker, jobs=1).check()
        self.assert_none_retained(checker)


class TestCheckingView:
    """``checking_events(shard=k, jobs=4)``: every task end and only
    shard k's accesses, in file order, for v2 and v3."""

    @pytest.mark.parametrize("suffix", [".jsonl", ".trc"])
    def test_shard_view(self, tmp_path, suffix):
        trace = run_program(locked_rmw_program(), record_trace=True).trace
        path = str(tmp_path / ("t" + suffix))
        dump_trace(trace, path)
        ends = [e.seq for e in trace.events if isinstance(e, TaskEndEvent)]
        assert len(ends) == TASKS + 1
        with open_trace(path) as reader:
            for shard in range(4):
                view = list(reader.checking_events(shard=shard, jobs=4))
                seqs = [e.seq for e in view]
                assert seqs == sorted(seqs)
                assert [
                    e.seq for e in view if isinstance(e, TaskEndEvent)
                ] == ends
                assert [e.seq for e in view if isinstance(e, MemoryEvent)] == [
                    e.seq
                    for e in trace.memory_events()
                    if shard_for_location(e.location, 4) == shard
                ]
                assert all(isinstance(e, (MemoryEvent, TaskEndEvent)) for e in view)
