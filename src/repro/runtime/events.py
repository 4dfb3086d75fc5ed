"""Trace event records.

Every observable action of a task-parallel execution is represented by one
of these dataclasses.  The runtime dispatches them to observers as they
happen; :class:`repro.runtime.observer.TraceRecorder` additionally
collects them into a :class:`repro.trace.trace.Trace` so that executions
can be replayed offline through any checker or explored for alternative
interleavings.

``seq`` is a runtime-global sequence number: the total order in which the
events were observed.  For memory events this is the trace order that a
trace-sensitive analysis such as Velodrome reasons about.

Events are immutable.  The task-lifecycle and lock events are frozen
dataclasses; :class:`MemoryEvent`, built once per instrumented access and
kept by the optimized checker as its access record, is immutable *by
convention* only, because a frozen dataclass pays one
``object.__setattr__`` per field at construction.  It is slotted, so it
has no ``__dict__``: read its fields through :func:`dataclasses.fields`,
not ``vars``.  Derive a changed event with :func:`dataclasses.replace`;
never assign to a field of an event that an observer may already hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Tuple

from repro.report import READ, WRITE

Location = Hashable


@dataclass(frozen=True)
class TaskSpawnEvent:
    """Task *parent* spawned task *child*; *async_node* is the DPST async node."""

    seq: int
    parent: int
    child: int
    async_node: int


@dataclass(frozen=True)
class TaskBeginEvent:
    """Task *task* started executing its body."""

    seq: int
    task: int


@dataclass(frozen=True)
class TaskEndEvent:
    """Task *task* finished (its body returned and all children completed)."""

    seq: int
    task: int


@dataclass(frozen=True)
class SyncEvent:
    """Task *task* executed a ``sync`` (or closed a finish scope)."""

    seq: int
    task: int
    finish_node: int


@dataclass(unsafe_hash=True, init=False)
class MemoryEvent:
    """A shared-memory access.

    Not frozen, for construction speed on the per-access path, but treat
    instances as immutable: ``unsafe_hash`` gives them value equality and a
    value hash, which mutating a field would invalidate.

    Slotted by hand, since ``@dataclass(slots=True)`` needs Python 3.10: a
    slot and a class-level default cannot share a name, so the fields carry
    no defaults and :meth:`__init__` supplies ``lockset``'s.  An event
    costs 80 bytes, against 128 with a ``__dict__`` (CPython 3.11), and
    the optimized checker keeps every event it stores.

    Attributes
    ----------
    seq:
        Global observation order.
    task / step:
        The performing task and its current DPST step node.
    location:
        The shared location accessed.
    access_type:
        :data:`repro.report.READ` or :data:`repro.report.WRITE`.
    lockset:
        The versioned lock names held by the task at the access, sorted.
    """

    __slots__ = ("seq", "task", "step", "location", "access_type", "lockset")

    seq: int
    task: int
    step: int
    location: Location
    access_type: str
    lockset: Tuple[str, ...]

    def __init__(
        self,
        seq: int,
        task: int,
        step: int,
        location: Location,
        access_type: str,
        lockset: Tuple[str, ...] = (),
    ) -> None:
        self.seq = seq
        self.task = task
        self.step = step
        self.location = location
        self.access_type = access_type
        self.lockset = lockset

    @property
    def is_write(self) -> bool:
        return self.access_type == WRITE

    @property
    def is_read(self) -> bool:
        return self.access_type == READ

    def conflicts_with(self, other: "MemoryEvent") -> bool:
        """Do the two accesses conflict (same location, at least one write)?

        Task identity is *not* considered here; callers that need the
        "different tasks" component of the conflict definition check it
        separately.
        """
        return self.location == other.location and (self.is_write or other.is_write)


@dataclass(frozen=True)
class AcquireEvent:
    """Task *task* acquired lock *name* (versioned as *versioned_name*)."""

    seq: int
    task: int
    step: int
    name: str
    versioned_name: str


@dataclass(frozen=True)
class ReleaseEvent:
    """Task *task* released lock *name* (which was held as *versioned_name*)."""

    seq: int
    task: int
    step: int
    name: str
    versioned_name: str


#: Every event class, in the order of the v3 trace format's type tags (a
#: tag is an index into this tuple).
EVENT_TYPES: Tuple[type, ...] = (
    TaskSpawnEvent,
    TaskBeginEvent,
    TaskEndEvent,
    SyncEvent,
    MemoryEvent,
    AcquireEvent,
    ReleaseEvent,
)
