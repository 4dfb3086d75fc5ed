"""Observer protocol: how analyses attach to the runtime.

An observer receives every runtime event (task management, memory accesses,
lock operations).  The atomicity checkers, the trace recorder and the
statistics collector are all observers, so a single execution can feed any
combination of analyses.

``requires_dpst`` lets the runtime skip DPST construction entirely when no
attached observer needs it -- that is the *uninstrumented baseline*
configuration of the Figure 13 overhead experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, List, Optional, Sequence, Tuple

from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    SyncEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSpawnEvent,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.runtime.executor import RunContext

Location = Hashable


class RuntimeObserver:
    """Base observer with no-op handlers.

    Subclasses override the events they care about.  ``on_run_begin``
    receives the :class:`~repro.runtime.executor.RunContext`, which exposes
    the DPST, the LCA engine and the program's atomicity annotations.
    """

    #: Set to ``True`` when the observer needs the DPST / LCA engine.
    requires_dpst = False

    def metrics(self) -> dict:
        """Accumulated observability counters, keyed by the canonical
        names of :data:`repro.obs.METRIC_NAMES`.

        Observers accumulate plain integers on their hot paths and
        surface them here; pipeline drivers flush the mapping into a
        :class:`repro.obs.Recorder` at phase boundaries (the per-event
        path never touches a recorder, keeping the disabled-observability
        configuration free).  The base implementation reports nothing.
        """
        return {}

    #: Set to ``True`` when the observer's verdict depends only on the
    #: per-location event subsequences (plus the DPST), never on the
    #: relative order of events touching *different* locations.  Such
    #: observers can be replayed shard-by-shard by the offline pipeline
    #: (:mod:`repro.checker.sharded`).  Trace-order-sensitive analyses
    #: (Velodrome's cross-location happens-before graph) must leave this
    #: ``False``.
    location_sharded = False

    #: Set to ``True`` when the observer needs more than memory events
    #: offline: the task lifecycle (the streaming checker frees finished
    #: tasks) or lock events (the interleaving explorer keeps critical
    #: sections together).  Offline replay then feeds the full event
    #: stream; every other observer gets the bare memory-event loop.
    requires_full_stream = False

    def on_run_begin(self, run: "RunContext") -> None:
        """Called once before the root task starts."""

    def on_run_end(self, run: "RunContext") -> None:
        """Called once after the root task (and all descendants) finished."""

    def on_task_spawn(self, event: TaskSpawnEvent) -> None:
        """A task created a child task."""

    def on_task_begin(self, event: TaskBeginEvent) -> None:
        """A task's body started executing."""

    def on_task_end(self, event: TaskEndEvent) -> None:
        """A task's body finished and its children completed."""

    def on_sync(self, event: SyncEvent) -> None:
        """A task executed ``sync`` / closed a finish scope."""

    def on_memory(self, event: MemoryEvent) -> None:
        """A shared-memory read or write was performed."""

    def on_acquire(self, event: AcquireEvent) -> None:
        """A lock was acquired."""

    def on_release(self, event: ReleaseEvent) -> None:
        """A lock was released."""


class ObserverChain(RuntimeObserver):
    """Fan-out to a sequence of observers, preserving order."""

    def __init__(self, observers: Sequence[RuntimeObserver]) -> None:
        self.observers: List[RuntimeObserver] = list(observers)

    @property
    def requires_dpst(self) -> bool:  # type: ignore[override]
        return any(obs.requires_dpst for obs in self.observers)

    def on_run_begin(self, run: "RunContext") -> None:
        for obs in self.observers:
            obs.on_run_begin(run)

    def on_run_end(self, run: "RunContext") -> None:
        for obs in self.observers:
            obs.on_run_end(run)

    def on_task_spawn(self, event: TaskSpawnEvent) -> None:
        for obs in self.observers:
            obs.on_task_spawn(event)

    def on_task_begin(self, event: TaskBeginEvent) -> None:
        for obs in self.observers:
            obs.on_task_begin(event)

    def on_task_end(self, event: TaskEndEvent) -> None:
        for obs in self.observers:
            obs.on_task_end(event)

    def on_sync(self, event: SyncEvent) -> None:
        for obs in self.observers:
            obs.on_sync(event)

    def on_memory(self, event: MemoryEvent) -> None:
        for obs in self.observers:
            obs.on_memory(event)

    def on_acquire(self, event: AcquireEvent) -> None:
        for obs in self.observers:
            obs.on_acquire(event)

    def on_release(self, event: ReleaseEvent) -> None:
        for obs in self.observers:
            obs.on_release(event)


class StatsObserver(RuntimeObserver):
    """Collects the per-run characteristics Table 1 reports.

    The DPST node count and LCA-query statistics come from the run context
    at ``on_run_end``; this observer itself counts tasks, memory events and
    lock operations.
    """

    requires_dpst = False

    def __init__(self) -> None:
        self.tasks = 0
        self.memory_events = 0
        self.reads = 0
        self.writes = 0
        self.lock_ops = 0
        self.syncs = 0
        self.dpst_nodes: Optional[int] = None
        self.lca_queries: Optional[int] = None
        self.lca_unique: Optional[int] = None

    def on_task_begin(self, event: TaskBeginEvent) -> None:
        self.tasks += 1

    def on_memory(self, event: MemoryEvent) -> None:
        self.memory_events += 1
        if event.is_write:
            self.writes += 1
        else:
            self.reads += 1

    def on_acquire(self, event: AcquireEvent) -> None:
        self.lock_ops += 1

    def on_release(self, event: ReleaseEvent) -> None:
        self.lock_ops += 1

    def on_sync(self, event: SyncEvent) -> None:
        self.syncs += 1

    def on_run_end(self, run: "RunContext") -> None:
        if run.dpst is not None:
            self.dpst_nodes = len(run.dpst)
        if run.engine is not None:
            self.lca_queries = run.engine.stats.queries
            self.lca_unique = run.engine.stats.unique

    @property
    def unique_lca_percent(self) -> float:
        """Percentage of LCA queries that were unique; 0.0 when none ran."""
        if not self.lca_queries:
            return 0.0
        return 100.0 * (self.lca_unique or 0) / self.lca_queries

    def metrics(self) -> dict:
        return {
            "runtime.tasks": self.tasks,
            "runtime.memory_events": self.memory_events,
            "runtime.lock_ops": self.lock_ops,
            "runtime.syncs": self.syncs,
        }


class TraceRecorder(RuntimeObserver):
    """Records every event into an in-memory list for offline analysis.

    The resulting event list can be wrapped in a
    :class:`repro.trace.trace.Trace` (done automatically by
    :meth:`as_trace`) and replayed through any checker or fed to the
    interleaving explorer.
    """

    requires_dpst = True

    def __init__(self) -> None:
        self.events: List[object] = []
        self.dpst = None

    def on_run_begin(self, run: "RunContext") -> None:
        self.dpst = run.dpst

    def on_task_spawn(self, event: TaskSpawnEvent) -> None:
        self.events.append(event)

    def on_task_begin(self, event: TaskBeginEvent) -> None:
        self.events.append(event)

    def on_task_end(self, event: TaskEndEvent) -> None:
        self.events.append(event)

    def on_sync(self, event: SyncEvent) -> None:
        self.events.append(event)

    def on_memory(self, event: MemoryEvent) -> None:
        self.events.append(event)

    def on_acquire(self, event: AcquireEvent) -> None:
        self.events.append(event)

    def on_release(self, event: ReleaseEvent) -> None:
        self.events.append(event)

    def memory_events(self) -> List[MemoryEvent]:
        """Just the memory accesses, in observation order."""
        return [e for e in self.events if isinstance(e, MemoryEvent)]

    def as_trace(self):
        """Wrap the recorded events in a :class:`repro.trace.trace.Trace`,
        carrying the DPST of the producing run when one was built."""
        from repro.trace.trace import Trace

        return Trace(list(self.events), dpst=self.dpst)
