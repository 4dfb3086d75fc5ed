"""TaskContext semantics: memory ops, spawn/sync, finish, locks, errors."""

import pytest

from repro.errors import RuntimeUsageError
from repro.runtime import SerialExecutor, TaskProgram, run_program


class TestMemoryOps:
    def test_values_flow_through_shared_memory(self):
        def main(ctx):
            ctx.write("X", 10)
            return ctx.read("X") + 1

        assert run_program(TaskProgram(main)).value == 11

    def test_update_and_add(self):
        def main(ctx):
            ctx.write("X", 10)
            ctx.update("X", lambda v: v * 2)
            ctx.add("X", 5)
            return ctx.read("X")

        assert run_program(TaskProgram(main)).value == 25

    def test_initial_memory(self):
        def main(ctx):
            return ctx.read(("arr", 2))

        program = TaskProgram(main, initial_memory={("arr", 2): 7})
        assert run_program(program).value == 7

    def test_default_read_is_zero(self):
        def main(ctx):
            return ctx.read("never_written")

        assert run_program(TaskProgram(main)).value == 0


class TestSpawnSync:
    def test_child_result_visible_after_sync(self):
        def child(ctx):
            ctx.write("out", 99)

        def main(ctx):
            ctx.spawn(child)
            ctx.sync()
            return ctx.read("out")

        assert run_program(TaskProgram(main)).value == 99

    def test_spawn_args_and_kwargs(self):
        def child(ctx, a, b=0):
            ctx.write("out", a + b)

        def main(ctx):
            ctx.spawn(child, 3, b=4)
            ctx.sync()
            return ctx.read("out")

        assert run_program(TaskProgram(main)).value == 7

    def test_task_ids_unique(self):
        seen = []

        def child(ctx):
            seen.append(ctx.task_id)

        def main(ctx):
            seen.append(ctx.task_id)
            for _ in range(3):
                ctx.spawn(child)
            ctx.sync()

        run_program(TaskProgram(main))
        assert len(set(seen)) == 4
        assert seen[0] == 0

    def test_depth(self):
        depths = []

        def grandchild(ctx):
            depths.append(ctx.depth)

        def child(ctx):
            depths.append(ctx.depth)
            ctx.spawn(grandchild)
            ctx.sync()

        def main(ctx):
            depths.append(ctx.depth)
            ctx.spawn(child)
            ctx.sync()

        run_program(TaskProgram(main))
        assert sorted(depths) == [0, 1, 2]

    def test_implicit_sync_at_task_end(self):
        def child(ctx):
            ctx.write("out", 1)

        def main(ctx):
            ctx.spawn(child)
            # no explicit sync: the task must still wait for its child

        result = run_program(TaskProgram(main))
        assert result.shadow.peek("out") == 1

    def test_sync_without_spawn_is_noop(self):
        def main(ctx):
            ctx.sync()
            ctx.sync()
            return 1

        assert run_program(TaskProgram(main)).value == 1

    def test_nested_spawns(self):
        def leaf(ctx, i):
            ctx.write(("out", i), i * i)

        def mid(ctx, base):
            for i in range(2):
                ctx.spawn(leaf, base + i)
            ctx.sync()

        def main(ctx):
            ctx.spawn(mid, 0)
            ctx.spawn(mid, 2)
            ctx.sync()
            return sum(ctx.read(("out", i)) for i in range(4))

        assert run_program(TaskProgram(main)).value == 0 + 1 + 4 + 9


class TestFinish:
    def test_finish_block_waits(self):
        def child(ctx):
            ctx.write("out", 5)

        def main(ctx):
            with ctx.finish():
                ctx.spawn(child)
            return ctx.read("out")

        assert run_program(TaskProgram(main)).value == 5

    def test_nested_finish(self):
        def child(ctx, i):
            ctx.write(("out", i), 1)

        def main(ctx):
            with ctx.finish():
                ctx.spawn(child, 0)
                with ctx.finish():
                    ctx.spawn(child, 1)
                ctx.spawn(child, 2)
            return sum(ctx.read(("out", i)) for i in range(3))

        assert run_program(TaskProgram(main)).value == 3


class TestLocks:
    def test_lock_context_manager(self):
        def main(ctx):
            with ctx.lock("L"):
                assert ctx.locked("L")
                ctx.write("X", 1)
            assert not ctx.locked("L")
            return ctx.read("X")

        assert run_program(TaskProgram(main)).value == 1

    def test_release_unheld_raises(self):
        def main(ctx):
            ctx.release("L")

        with pytest.raises(RuntimeUsageError):
            run_program(TaskProgram(main))

    def test_double_acquire_raises(self):
        def main(ctx):
            ctx.acquire("L")
            ctx.acquire("L")

        with pytest.raises(RuntimeUsageError):
            run_program(TaskProgram(main))


class TestProgramWrapper:
    def test_bare_function_accepted(self):
        def main(ctx):
            return 42

        assert run_program(main).value == 42

    def test_program_name_defaults_to_function_name(self):
        def my_program(ctx):
            return None

        assert TaskProgram(my_program).name == "my_program"

    def test_program_args(self):
        def main(ctx, n, offset=0):
            return n + offset

        program = TaskProgram(main, args=(10,), kwargs={"offset": 5})
        assert run_program(program).value == 15

    def test_exceptions_propagate(self):
        def main(ctx):
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_program(TaskProgram(main))

    def test_child_exception_propagates_serial(self):
        def child(ctx):
            raise KeyError("child went wrong")

        def main(ctx):
            ctx.spawn(child)
            ctx.sync()

        with pytest.raises(KeyError):
            run_program(TaskProgram(main))


class TestSpawnDepth:
    """A spawn chain deeper than the interpreter stack allows ends in a
    named error stating the depth and the recursion limit."""

    @staticmethod
    def chain(length):
        def body(ctx, depth=0):
            if depth < length:
                ctx.spawn(body, depth + 1)
                ctx.sync()
            ctx.write("leaf", depth)

        return body

    @pytest.mark.parametrize("checkers", [(), ("optimized",)])
    def test_deep_chain_is_a_named_error(self, checkers):
        import sys

        with pytest.raises(RuntimeUsageError, match="spawn depth") as raised:
            run_program(self.chain(10_000), checkers=checkers)
        assert f"sys.getrecursionlimit() = {sys.getrecursionlimit()}" in str(
            raised.value
        )

    @pytest.mark.parametrize("checkers", [(), ("optimized",)])
    def test_shallow_chain_runs_clean(self, checkers):
        result = run_program(self.chain(100), checkers=checkers)
        assert result.shadow.peek("leaf") == 0
        assert not result.report()
