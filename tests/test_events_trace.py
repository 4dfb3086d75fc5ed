"""Events, the trace recorder, and the Trace container."""

import dataclasses

import pytest

from repro.errors import TraceError
from repro.report import READ, WRITE
from repro.runtime import TaskProgram, TraceRecorder, run_program
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    SyncEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSpawnEvent,
)
from repro.trace.serialize import dump_trace, load_trace
from repro.trace.trace import Trace


def sample_program():
    def child(ctx):
        with ctx.lock("L"):
            ctx.add("X", 1)

    def main(ctx):
        ctx.write("X", 0)
        ctx.spawn(child)
        ctx.spawn(child)
        ctx.sync()
        return ctx.read("X")

    return TaskProgram(main)


@pytest.fixture
def recorded():
    return run_program(sample_program(), record_trace=True)


class TestRecorder:
    def test_all_event_kinds_recorded(self, recorded):
        kinds = {type(e) for e in recorded.recorder.events}
        assert kinds >= {
            TaskSpawnEvent,
            TaskBeginEvent,
            TaskEndEvent,
            SyncEvent,
            MemoryEvent,
            AcquireEvent,
            ReleaseEvent,
        }

    def test_trace_carries_dpst(self, recorded):
        assert recorded.trace.dpst is recorded.dpst

    def test_memory_event_fields(self, recorded):
        events = recorded.recorder.memory_events()
        first = events[0]
        assert first.access_type == WRITE
        assert first.location == "X"
        assert first.task == 0
        locked = [e for e in events if e.lockset]
        assert locked and all(e.lockset == ("L",) for e in locked)

    def test_conflicts_with(self):
        a = MemoryEvent(0, 1, 2, "X", READ)
        b = MemoryEvent(1, 2, 3, "X", WRITE)
        c = MemoryEvent(2, 2, 3, "Y", WRITE)
        assert a.conflicts_with(b)
        assert not a.conflicts_with(a)   # read-read never conflicts
        assert not b.conflicts_with(c)   # different locations


class TestMemoryEventContract:
    """What observers, serializers and tests rely on now that
    :class:`MemoryEvent` is immutable by convention rather than frozen,
    and slotted by hand rather than through ``dataclass(slots=True)``."""

    FIELDS = ("seq", "task", "step", "location", "access_type", "lockset")

    def test_value_equality_and_hash(self):
        a = MemoryEvent(4, 1, 7, ("A", 2), WRITE, ("L", "M#1"))
        b = MemoryEvent(4, 1, 7, ("A", 2), WRITE, ("L", "M#1"))
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != dataclasses.replace(a, seq=5)
        assert a != dataclasses.replace(a, lockset=())

    def test_replace_derives_a_new_event(self):
        a = MemoryEvent(0, 1, 2, "X", READ, ("L",))
        b = dataclasses.replace(a, lockset=())
        assert b is not a
        assert b.lockset == ()
        assert a.lockset == ("L",)
        assert dataclasses.astuple(b)[:5] == dataclasses.astuple(a)[:5]

    def test_field_order(self):
        event = MemoryEvent(0, 1, 2, "X", READ, ("L",))
        assert tuple(f.name for f in dataclasses.fields(event)) == self.FIELDS
        assert tuple(event.__dataclass_fields__) == self.FIELDS
        assert dataclasses.astuple(event) == (0, 1, 2, "X", READ, ("L",))
        assert MemoryEvent(0, 1, 2, "X", READ).lockset == ()

    def test_slotted(self):
        """No ``__dict__``: ``vars(event)`` fails and no attribute outside
        the six fields can be set."""
        event = MemoryEvent(0, 1, 2, "X", READ, ("L",))
        assert MemoryEvent.__slots__ == self.FIELDS
        assert not hasattr(event, "__dict__")
        with pytest.raises(TypeError):
            vars(event)
        with pytest.raises(AttributeError):
            event.extra = 1

    @pytest.mark.parametrize("suffix", [".jsonl", ".trc"])
    def test_round_trip(self, recorded, tmp_path, suffix):
        """v2 (JSONL) and v3 (columnar) decode memory events equal to,
        and hashing like, the recorded ones."""
        path = str(tmp_path / f"trace{suffix}")
        dump_trace(recorded.trace, path)
        original = recorded.trace.memory_events()
        decoded = load_trace(path).memory_events()
        assert decoded == original
        assert [hash(e) for e in decoded] == [hash(e) for e in original]
        assert all(type(e) is MemoryEvent for e in decoded)
        assert [dataclasses.astuple(e) for e in decoded] == [
            dataclasses.astuple(e) for e in original
        ]


class TestTraceViews:
    def test_lengths(self, recorded):
        trace = recorded.trace
        assert len(trace) == len(recorded.recorder.events)
        assert len(trace.memory_events()) == 6  # 1 init + 2*(R+W) + final R
        assert len(trace.lock_events()) == 4

    def test_task_ids(self, recorded):
        assert recorded.trace.task_ids() == [0, 1, 2]

    def test_locations(self, recorded):
        assert recorded.trace.locations() == ["X"]

    def test_events_by_step_partition(self, recorded):
        grouped = recorded.trace.events_by_step()
        total = sum(len(events) for events in grouped.values())
        assert total == len(recorded.trace.memory_events())

    def test_events_for_location(self, recorded):
        assert len(recorded.trace.events_for_location("X")) == 6
        assert recorded.trace.events_for_location("nope") == []

    def test_step_ids_are_steps(self, recorded):
        for step in recorded.trace.step_ids():
            assert recorded.dpst.is_step(step)


class TestValidation:
    def test_recorded_trace_validates(self, recorded):
        recorded.trace.validate()

    def test_non_monotonic_seq_rejected(self):
        events = [
            MemoryEvent(5, 0, 1, "X", READ),
            MemoryEvent(3, 0, 1, "X", READ),
        ]
        with pytest.raises(TraceError):
            Trace(events).validate()

    def test_step_owned_by_two_tasks_rejected(self):
        events = [
            MemoryEvent(0, 0, 1, "X", READ),
            MemoryEvent(1, 9, 1, "X", READ),
        ]
        with pytest.raises(TraceError):
            Trace(events).validate()

    def test_unknown_step_rejected_with_dpst(self, recorded):
        bogus = Trace(
            [MemoryEvent(0, 0, 9_999, "X", READ)], dpst=recorded.dpst
        )
        with pytest.raises(TraceError):
            bogus.validate()

    def test_to_dicts_roundtrip_fields(self, recorded):
        rows = recorded.trace.to_dicts()
        assert len(rows) == len(recorded.trace)
        memory_rows = [r for r in rows if r["type"] == "MemoryEvent"]
        assert all("location" in r and "seq" in r for r in memory_rows)
