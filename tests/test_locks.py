"""Lock versioning and lockset tracking (Section 3.3)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RuntimeUsageError
from repro.runtime import RuntimeObserver, TaskProgram, run_program
from repro.runtime.locks import LockTable, TaskLockState, versioned_name
from repro.suite import get as get_case


class TestVersionedName:
    def test_epoch_zero_is_bare(self):
        assert versioned_name("L", 0) == "L"

    def test_later_epochs_suffixed(self):
        assert versioned_name("L", 1) == "L#1"
        assert versioned_name("L", 7) == "L#7"


class TestTaskLockState:
    def test_first_acquire_unversioned(self):
        state = TaskLockState(1)
        assert state.acquire("L") == "L"
        assert state.lockset() == {"L"}

    def test_reacquire_after_release_is_versioned(self):
        state = TaskLockState(1)
        state.acquire("L")
        assert state.release("L") == "L"
        assert state.acquire("L") == "L#1"
        state.release("L")
        assert state.acquire("L") == "L#2"

    def test_versioned_locksets_do_not_intersect(self):
        """The paper's Figure 12 property: {L} and {L#1} are disjoint."""
        state = TaskLockState(1)
        state.acquire("L")
        first = state.lockset()
        state.release("L")
        state.acquire("L")
        second = state.lockset()
        assert not (first & second)

    def test_multiple_locks(self):
        state = TaskLockState(1)
        state.acquire("L")
        state.acquire("M")
        assert state.lockset() == {"L", "M"}
        assert state.lockset_tuple() == ("L", "M")

    def test_double_acquire_rejected(self):
        state = TaskLockState(1)
        state.acquire("L")
        with pytest.raises(RuntimeUsageError):
            state.acquire("L")

    def test_release_unheld_rejected(self):
        state = TaskLockState(1)
        with pytest.raises(RuntimeUsageError):
            state.release("L")

    def test_holds(self):
        state = TaskLockState(1)
        assert not state.holds_any
        state.acquire("L")
        assert state.holds("L")
        assert state.holds_any
        assert not state.holds("M")

    def test_lockset_snapshot_is_immutable_view(self):
        state = TaskLockState(1)
        state.acquire("L")
        snapshot = state.lockset()
        state.release("L")
        assert snapshot == {"L"}
        assert state.lockset() == frozenset()

    def test_independent_epochs_per_lock(self):
        state = TaskLockState(1)
        state.acquire("L")
        state.release("L")
        assert state.acquire("M") == "M"
        assert state.acquire("L") == "L#1"


# -- the cached lockset tuple -----------------------------------------------

BASES = ("L", "M", "N")
ACTIONS = ("acquire", "release", "peek")
PINNED_SEEDS = [0, 1, 2, 7, 11, 42, 1234]


def _replay_lock_ops(ops):
    """Apply (action, base) steps to one task's lock state, checking the
    cached tuple after every step against a model of the held locks.

    Invalid steps (re-acquiring a held lock, releasing an unheld one) must
    raise and leave the state untouched.
    """
    state = TaskLockState(1)
    held = {}
    minted = set()
    previous = state.lockset_tuple()
    for action, base in ops:
        mutated = False
        if action == "acquire":
            if base in held:
                with pytest.raises(RuntimeUsageError):
                    state.acquire(base)
            else:
                name = state.acquire(base)
                assert name not in minted, "versioned names must stay fresh"
                minted.add(name)
                held[base] = name
                mutated = True
        elif action == "release":
            if base in held:
                assert state.release(base) == held.pop(base)
                mutated = True
            else:
                with pytest.raises(RuntimeUsageError):
                    state.release(base)
        current = state.lockset_tuple()
        assert current == tuple(sorted(state.lockset()))
        assert current == tuple(sorted(held.values()))
        assert state.lockset_tuple() is current
        if not mutated:
            assert current is previous, "unchanged lockset must be the same object"
        previous = current


class TestLocksetTupleCache:
    @pytest.mark.parametrize("seed", PINNED_SEEDS)
    def test_pinned_sequences(self, seed):
        rng = random.Random(seed)
        ops = [(rng.choice(ACTIONS), rng.choice(BASES)) for _ in range(200)]
        _replay_lock_ops(ops)

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(ACTIONS), st.sampled_from(BASES)),
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_any_sequence(self, ops):
        _replay_lock_ops(ops)

    def test_reacquire_changes_the_tuple(self):
        state = TaskLockState(1)
        state.acquire("L")
        first = state.lockset_tuple()
        state.release("L")
        assert state.lockset_tuple() == ()
        state.acquire("L")
        assert first == ("L",)
        assert state.lockset_tuple() == ("L#1",)

    def test_events_between_lock_operations_share_one_tuple(self):
        """At run level: every access a task makes inside one critical
        section carries the identical lockset object."""

        class Spy(RuntimeObserver):
            def __init__(self):
                self.sections = {}
                self.open = {}

            def on_acquire(self, event):
                self.open.pop(event.task, None)

            def on_release(self, event):
                self.open.pop(event.task, None)

            def on_memory(self, event):
                key = (event.task, self.open.setdefault(event.task, event.seq))
                self.sections.setdefault(key, []).append(event.lockset)

        def child(ctx):
            with ctx.lock("L"):
                ctx.add("X", 1)
                ctx.add("Y", 1)
            with ctx.lock("L"):
                with ctx.lock("M"):
                    ctx.add("X", 1)

        def main(ctx):
            ctx.spawn(child)
            ctx.spawn(child)
            ctx.sync()

        spy = Spy()
        run_program(TaskProgram(main), observers=[spy])
        assert len(spy.sections) == 4
        for locksets in spy.sections.values():
            assert all(lockset is locksets[0] for lockset in locksets)


class TestReacquisitionStillReported:
    """The Figure 11/12 violation needs a fresh versioned name per
    re-acquisition; a stale cached tuple would hide it."""

    def test_suite_figure11(self):
        case = get_case("lock_paper_figure11")
        result = run_program(case.build(), checkers=["optimized"])
        assert result.reports["optimized"].locations() == ["X"]

    @pytest.mark.parametrize("idle_sections", [0, 1, 3])
    @pytest.mark.parametrize("same_section", [False, True])
    def test_read_and_write_in_separate_sections(self, idle_sections, same_section):
        def t2(ctx):
            if same_section:
                with ctx.lock("L"):
                    ctx.write("X", ctx.read("X") + 1)
                return
            with ctx.lock("L"):
                value = ctx.read("X")
            for _ in range(idle_sections):
                with ctx.lock("L"):
                    pass
            with ctx.lock("L"):
                ctx.write("X", value + 1)

        def t3(ctx):
            with ctx.lock("L"):
                ctx.write("X", 0)

        def main(ctx):
            ctx.spawn(t2)
            ctx.spawn(t3)
            ctx.sync()

        result = run_program(TaskProgram(main), checkers=["optimized"])
        expected = set() if same_section else {"X"}
        assert set(result.reports["optimized"].locations()) == expected


class TestLockTable:
    def test_acquire_release_roundtrip(self):
        table = LockTable()
        table.acquire("L")
        table.release("L")
        table.acquire("L")
        table.release("L")

    def test_known_locks(self):
        table = LockTable()
        table.acquire("B")
        table.release("B")
        table.acquire("A")
        table.release("A")
        assert table.known_locks() == ("A", "B")
