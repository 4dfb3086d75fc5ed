"""Executors: all schedules compute the same results and verdicts.

The paper's point is schedule insensitivity of the *analysis*; these tests
additionally pin schedule insensitivity of deterministic *programs* (those
whose shared accesses commute or are ordered) and basic liveness of the
work-stealing pool.
"""

import sys
import time

import pytest

from repro.checker import OptAtomicityChecker
from repro.report import normalized_locations
from repro.runtime import (
    RandomOrderExecutor,
    SerialExecutor,
    TaskProgram,
    WorkStealingExecutor,
    run_program,
)
from repro.runtime.executor import Executor, Runtime
from repro.runtime.observer import RuntimeObserver

ALL_EXECUTORS = [
    lambda: SerialExecutor(),
    lambda: SerialExecutor(policy="help_first", order="fifo"),
    lambda: SerialExecutor(policy="help_first", order="lifo"),
    lambda: RandomOrderExecutor(seed=1),
    lambda: RandomOrderExecutor(seed=2),
    lambda: WorkStealingExecutor(workers=2),
    lambda: WorkStealingExecutor(workers=4),
]


def fanout_program():
    def child(ctx, i):
        ctx.write(("out", i), i * i)

    def main(ctx):
        for i in range(8):
            ctx.spawn(child, i)
        ctx.sync()
        return sum(ctx.read(("out", i)) for i in range(8))

    return TaskProgram(main)


def tree_program():
    def node(ctx, depth, index):
        if depth == 0:
            ctx.write(("leaf", index), index)
            return
        ctx.spawn(node, depth - 1, index * 2)
        ctx.spawn(node, depth - 1, index * 2 + 1)
        ctx.sync()

    def main(ctx):
        ctx.spawn(node, 3, 0)
        ctx.sync()
        return sum(ctx.read(("leaf", i)) for i in range(8))

    return TaskProgram(main)


@pytest.mark.parametrize("make_executor", ALL_EXECUTORS)
def test_fanout_result_identical(make_executor):
    result = run_program(fanout_program(), executor=make_executor())
    assert result.value == sum(i * i for i in range(8))


@pytest.mark.parametrize("make_executor", ALL_EXECUTORS)
def test_tree_result_identical(make_executor):
    result = run_program(tree_program(), executor=make_executor())
    assert result.value == sum(range(8))


@pytest.mark.parametrize("make_executor", ALL_EXECUTORS)
def test_checker_verdict_schedule_insensitive(make_executor):
    def rmw(ctx):
        value = ctx.read("X")
        ctx.write("X", value + 1)

    def main(ctx):
        for _ in range(3):
            ctx.spawn(rmw)
        ctx.sync()

    result = run_program(
        TaskProgram(main), executor=make_executor(), observers=[OptAtomicityChecker()]
    )
    assert set(result.report().locations()) == {"X"}


@pytest.mark.parametrize("make_executor", ALL_EXECUTORS)
def test_locked_program_clean_everywhere(make_executor):
    def rmw(ctx):
        with ctx.lock("L"):
            value = ctx.read("X")
            ctx.write("X", value + 1)

    def main(ctx):
        for _ in range(4):
            ctx.spawn(rmw)
        ctx.sync()
        return ctx.read("X")

    result = run_program(
        TaskProgram(main), executor=make_executor(), observers=[OptAtomicityChecker()]
    )
    assert not result.report()
    assert result.value == 4  # the lock makes the count exact


class TestSerialPolicies:
    def test_child_first_runs_child_at_spawn(self):
        order = []

        def child(ctx):
            order.append("child")

        def main(ctx):
            ctx.spawn(child)
            order.append("parent")
            ctx.sync()

        run_program(TaskProgram(main), executor=SerialExecutor())
        assert order == ["child", "parent"]

    def test_help_first_defers_children(self):
        order = []

        def child(ctx, i):
            order.append(f"child{i}")

        def main(ctx):
            ctx.spawn(child, 0)
            ctx.spawn(child, 1)
            order.append("parent")
            ctx.sync()

        run_program(
            TaskProgram(main), executor=SerialExecutor(policy="help_first")
        )
        assert order == ["parent", "child0", "child1"]

    def test_help_first_lifo_reverses(self):
        order = []

        def child(ctx, i):
            order.append(i)

        def main(ctx):
            for i in range(3):
                ctx.spawn(child, i)
            ctx.sync()

        run_program(
            TaskProgram(main),
            executor=SerialExecutor(policy="help_first", order="lifo"),
        )
        assert order == [2, 1, 0]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            SerialExecutor(policy="nope")
        with pytest.raises(ValueError):
            SerialExecutor(order="sideways")


class TestRandomExecutor:
    def test_seed_determinism(self):
        def child(ctx, i):
            ctx.write(("order", ctx.task_id), i)

        def main(ctx):
            for i in range(5):
                ctx.spawn(child, i)
            ctx.sync()

        snaps = []
        for _ in range(2):
            result = run_program(
                TaskProgram(main), executor=RandomOrderExecutor(seed=9),
                record_trace=True,
            )
            snaps.append([e.task for e in result.recorder.memory_events()])
        assert snaps[0] == snaps[1]


class TestWorkStealing:
    def test_many_tasks_complete(self):
        def child(ctx, i):
            ctx.write(("out", i), 1)

        def main(ctx):
            for i in range(40):
                ctx.spawn(child, i)
            ctx.sync()
            return sum(ctx.read(("out", i)) for i in range(40))

        result = run_program(
            TaskProgram(main), executor=WorkStealingExecutor(workers=4)
        )
        assert result.value == 40

    def test_nested_sync_under_stealing(self):
        def leaf(ctx, i):
            ctx.write(("leaf", i), i)

        def mid(ctx, base):
            for i in range(3):
                ctx.spawn(leaf, base * 3 + i)
            ctx.sync()
            ctx.write(("mid", base), 1)

        def main(ctx):
            for base in range(4):
                ctx.spawn(mid, base)
            ctx.sync()
            return sum(ctx.read(("mid", b)) for b in range(4))

        result = run_program(
            TaskProgram(main), executor=WorkStealingExecutor(workers=3)
        )
        assert result.value == 4

    def test_exception_propagates(self):
        def bad(ctx):
            raise RuntimeError("task exploded")

        def main(ctx):
            ctx.spawn(bad)
            ctx.sync()

        with pytest.raises(RuntimeError, match="task exploded"):
            run_program(TaskProgram(main), executor=WorkStealingExecutor(workers=2))

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            WorkStealingExecutor(workers=0)

    def test_locks_exclude_across_workers(self):
        def bump(ctx):
            with ctx.lock("L"):
                value = ctx.read("X")
                ctx.write("X", value + 1)

        def main(ctx):
            for _ in range(16):
                ctx.spawn(bump)
            ctx.sync()
            return ctx.read("X")

        result = run_program(
            TaskProgram(main), executor=WorkStealingExecutor(workers=4)
        )
        assert result.value == 16


class TestRuntimeLock:
    """An instrumented access takes the runtime's lock only where tasks
    may run on several threads: each executor states ``threaded``."""

    @staticmethod
    def lock_probe():
        """An observer noting whether the runtime's lock is held by the
        thread delivering each access."""

        class Probe(RuntimeObserver):
            runtime = None
            held = []

            def on_memory(self, event):
                self.held.append(self.runtime._lock._is_owned())

        return Probe()

    def run_probed(self, executor):
        probe = self.lock_probe()
        runtime = Runtime(executor, observers=[probe])
        probe.runtime = runtime
        probe.held = []
        runtime.run(fanout_program().body)
        assert probe.held
        return runtime, set(probe.held)

    @pytest.mark.parametrize(
        "make_executor",
        [SerialExecutor, lambda: SerialExecutor("help_first", "lifo"),
         lambda: RandomOrderExecutor(seed=3)],
    )
    def test_single_threaded_executors_take_no_lock(self, make_executor):
        executor = make_executor()
        assert executor.threaded is False
        runtime, held = self.run_probed(executor)
        assert held == {False}
        assert runtime.read == runtime._read_unlocked

    def test_work_stealing_takes_the_lock(self):
        executor = WorkStealingExecutor(workers=2)
        assert executor.threaded is True
        _, held = self.run_probed(executor)
        assert held == {True}

    def test_unknown_executor_keeps_the_lock(self):
        """A third-party executor that does not say it is single-threaded
        gets the locked methods."""

        class InlineExecutor(Executor):
            name = "inline"

            def run_root(self, runtime, root):
                runtime.execute_task(root)

            def submit(self, runtime, parent, child):
                runtime.execute_task(child)

            def wait_frame(self, runtime, task, frame):
                pass

        assert InlineExecutor.threaded is True
        runtime, held = self.run_probed(InlineExecutor())
        assert held == {True}
        assert "read" not in vars(runtime) and "write" not in vars(runtime)

    def stress_program(self):
        """64 tasks of racy, locked and private accesses."""

        def worker(ctx, i):
            for k in range(8):
                ctx.write(("racy", i % 4), ctx.read(("racy", i % 4)) + 1)
                with ctx.lock("m"):
                    ctx.add("counter", 1)
                ctx.write(("own", i, k), k)

        def main(ctx):
            for i in range(64):
                ctx.spawn(worker, i)
            ctx.sync()

        memory = {("racy", k): 0 for k in range(4)}
        memory["counter"] = 0
        return TaskProgram(main, initial_memory=memory)

    def test_work_stealing_stress_keeps_seqs_and_verdict(self):
        """Eight workers on a tiny GIL switch interval: every event still
        gets its own seq, with none skipped, the accesses reach the
        observers in seq order, and the verdict is the serial run's.
        Repeats for about two seconds."""
        serial = run_program(self.stress_program(), checkers=["optimized"])
        expected = normalized_locations(serial.reports["optimized"])
        assert expected
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 2.0
            runs = 0
            while runs < 2 or time.monotonic() < deadline:
                result = run_program(
                    self.stress_program(),
                    executor=WorkStealingExecutor(workers=8, seed=runs),
                    checkers=["optimized"],
                    record_trace=True,
                )
                memory = [e.seq for e in result.trace.memory_events()]
                assert len(set(memory)) == len(memory)
                assert memory == sorted(memory)
                seqs = sorted(e.seq for e in result.trace.events)
                assert seqs == list(range(len(seqs)))
                report = result.reports["optimized"]
                assert normalized_locations(report) == expected
                runs += 1
        finally:
            sys.setswitchinterval(interval)
