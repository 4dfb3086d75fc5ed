"""Offline replay of event streams through checkers.

The checkers are runtime observers, and most consume only memory events
plus the DPST -- so any recorded (or generated, or permuted) trace can be
fed to them without re-executing a program.  Replay is what lets the test
suite demonstrate the paper's schedule-insensitivity claim: permuting the
legal order of a trace's events never changes the optimized checker's
verdict, while it very much changes Velodrome's.

To check a whole :class:`Trace`, use
:class:`repro.session.CheckSession`, which replays what
:func:`events_to_replay` picks through :func:`replay_events`;
:func:`replay_memory_events` and :func:`replay_events` feed a bare event
stream.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.checker.annotations import AtomicAnnotations
from repro.dpst.base import DPSTBase
from repro.dpst.engines import make_engine
from repro.errors import TraceError
from repro.report import ViolationReport
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    SyncEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSpawnEvent,
)
from repro.runtime.executor import RunContext
from repro.runtime.observer import RuntimeObserver
from repro.runtime.shadow import ShadowMemory
from repro.runtime.locks import LockTable
from repro.trace.serialize import shard_for_location
from repro.trace.trace import Trace


def _make_context(
    dpst: Optional[DPSTBase],
    annotations: Optional[AtomicAnnotations],
    lca_cache: bool = True,
    parallel_engine: str = "lca",
    recorder=None,
) -> RunContext:
    if dpst is None:
        engine = None
    else:
        # Registry resolution: raises UnknownEngineError (a CheckerError
        # and ValueError) naming the valid engines.
        engine = make_engine(parallel_engine, dpst, cache=lca_cache)
    return RunContext(
        dpst=dpst,
        engine=engine,
        shadow=ShadowMemory(),
        locks=LockTable(),
        annotations=annotations or AtomicAnnotations(),
        parallel_engine=parallel_engine,
        recorder=recorder,
    )


def _replay(
    drive, events, checker, dpst, annotations, lca_cache, parallel_engine, recorder
):
    """The shared prologue and epilogue of both replay front doors.

    *drive* ``(events, checker, counting)`` feeds the events and returns
    the number of memory events routed (only needed when *counting*).
    """
    needs_tree = getattr(checker, "requires_lca", checker.requires_dpst)
    if needs_tree and dpst is None:
        raise TraceError(
            f"{type(checker).__name__} needs the producing DPST to replay"
        )
    context = _make_context(dpst, annotations, lca_cache, parallel_engine, recorder)
    checker.on_run_begin(context)
    if recorder is not None and recorder.enabled:
        from repro.obs import (
            SPAN_REPLAY,
            flush_engine_stats,
            flush_observer_metrics,
        )

        with recorder.span(SPAN_REPLAY):
            routed = drive(events, checker, True)
        checker.on_run_end(context)
        recorder.count("trace.events.routed", routed)
        flush_observer_metrics(recorder, checker)
        flush_engine_stats(recorder, context.engine)
    else:
        drive(events, checker, False)
        checker.on_run_end(context)
    report = getattr(checker, "report", None)
    if not isinstance(report, ViolationReport):
        raise TraceError(f"{type(checker).__name__} exposes no report")
    return report


def _drive_memory(events, checker, counting: bool) -> int:
    on_memory = checker.on_memory
    routed = 0
    if counting:
        for routed, event in enumerate(events, 1):
            on_memory(event)
    else:
        for event in events:
            on_memory(event)
    return routed


def _drive_all(events, checker, counting: bool) -> int:
    routed = 0
    on_memory = checker.on_memory
    for event in events:
        if isinstance(event, MemoryEvent):
            on_memory(event)
            routed += 1
        elif isinstance(event, TaskEndEvent):
            checker.on_task_end(event)
        elif isinstance(event, TaskSpawnEvent):
            checker.on_task_spawn(event)
        elif isinstance(event, TaskBeginEvent):
            checker.on_task_begin(event)
        elif isinstance(event, SyncEvent):
            checker.on_sync(event)
        elif isinstance(event, AcquireEvent):
            checker.on_acquire(event)
        elif isinstance(event, ReleaseEvent):
            checker.on_release(event)
    return routed


def events_to_replay(
    source,
    checker: RuntimeObserver,
    shard: int = 0,
    jobs: int = 1,
    annotations: Optional[AtomicAnnotations] = None,
) -> Iterable[object]:
    """What an offline check of *source* feeds *checker*, in source order.

    The one choice behind every offline check
    (:meth:`repro.session.CheckSession.check`): ``jobs=1`` over a
    :class:`Trace` or a :class:`~repro.trace.serialize.TraceReader`, and
    each ``jobs>1`` shard, in memory or read from the file.  *source*
    may also be a plain event iterable.

    A checker that sets ``requires_full_stream`` (the interleaving
    explorer, which keeps critical sections whole) gets every event.
    Every other checker gets the memory events and the task ends: a task
    end lets the optimized checker free the finished task's local
    metadata, and since it carries no location it reaches every shard.
    With ``jobs > 1`` only shard *shard*'s memory events are kept, keyed
    on ``annotations.metadata_key`` when the annotations group locations
    (a group shares one metadata cell, so it must share a shard).
    """
    if isinstance(source, Trace):
        source = source.events
    reader = getattr(source, "checking_events", None)
    if checker.requires_full_stream:
        return source.events() if reader is not None else source
    keyed = annotations is not None and not annotations.trivial
    if reader is not None:
        if jobs > 1 and not keyed:
            # The reader routes by the shard key stored in the file.
            return reader(shard=shard, jobs=jobs)
        events = reader()
    else:
        events = (
            event
            for event in source
            if isinstance(event, (MemoryEvent, TaskEndEvent))
        )
    if jobs <= 1:
        return events
    key = annotations.metadata_key if keyed else (lambda location: location)
    return (
        event
        for event in events
        if not isinstance(event, MemoryEvent)
        or shard_for_location(key(event.location), jobs) == shard
    )


def replay_memory_events(
    events: Iterable[MemoryEvent],
    checker: RuntimeObserver,
    dpst: Optional[DPSTBase] = None,
    annotations: Optional[AtomicAnnotations] = None,
    lca_cache: bool = True,
    parallel_engine: str = "lca",
    recorder=None,
) -> ViolationReport:
    """Feed *events* (in the given order) to *checker*; return its report.

    *dpst* is required for checkers that issue parallelism queries (the
    basic and optimized checkers); Velodrome replays happily without one
    because the events already carry their step ids.  *events* may be any
    iterable, including a streaming generator over a trace file that never
    materializes the full event list.

    *recorder* is an optional :class:`repro.obs.Recorder`.  When enabled,
    the replay runs under a ``"replay"`` span, counts the events routed,
    and flushes the checker's and engine's accumulated counters at the
    end.  When disabled (or ``None``) the per-event loop is a bare
    ``on_memory`` call -- observability costs nothing it does not use.
    """
    return _replay(
        _drive_memory, events, checker, dpst, annotations, lca_cache,
        parallel_engine, recorder,
    )


def replay_events(
    events: Iterable[object],
    checker: RuntimeObserver,
    dpst: Optional[DPSTBase] = None,
    annotations: Optional[AtomicAnnotations] = None,
    lca_cache: bool = True,
    parallel_engine: str = "lca",
    recorder=None,
) -> ViolationReport:
    """Feed a *full* event stream -- memory, task, sync, lock -- to *checker*.

    Every offline check goes through here, with the events
    :func:`events_to_replay` picks: a ``TaskEndEvent`` proves the task's
    local metadata dead, so the optimized checker frees it, and the
    interleaving explorer needs lock events to keep critical sections
    whole.  Each event is dispatched to the matching observer hook;
    unknown event types are ignored.  ``trace.events.routed`` still
    counts memory events only, so the counter stays comparable with
    memory-only replays.
    """
    return _replay(
        _drive_all, events, checker, dpst, annotations, lca_cache,
        parallel_engine, recorder,
    )

