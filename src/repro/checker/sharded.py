"""Location-sharded parallel trace checking.

The optimized checker's state (paper Figures 6-9) is keyed entirely by
location: one :class:`~repro.checker.metadata.GlobalSpace` per location
and one :class:`~repro.checker.metadata.LocalCell` per (task, location).
Against an immutable, fully-built DPST the analysis of one location never
reads or writes another location's metadata, so a recorded trace can be
partitioned by location hash and each shard checked in its own process --
the verdict is the union of the per-shard verdicts.  The same holds for
the basic checker (per-location access histories) and the race detector
(per-location shadow cells); such observers advertise it with
``location_sharded = True``.  Velodrome does *not* qualify: its
happens-before graph spans locations, and sharding would silently drop
cross-location cycles, so the driver refuses it for ``jobs > 1``.

Sharding key: multi-variable annotation groups share one metadata cell, so
events are bucketed by ``annotations.metadata_key(location)`` -- a group's
members always land in the same shard.

Two input shapes:

* an in-memory :class:`~repro.trace.trace.Trace` -- events are partitioned
  in the parent and shipped to workers (with the DPST flattened once);
* a trace *file path* -- each worker streams the file itself through
  :class:`~repro.trace.serialize.TraceReader` and keeps only its shard, so
  the parent never materializes the events and traces larger than RAM can
  be checked.

Every offline check -- ``jobs=1`` in-process (the whole run is shard 0),
each ``jobs>1`` worker, checkpointed or not, streaming or not -- replays
through one shard body, :func:`_replay_shard`, which returns a
:class:`~repro.report.ViolationReport`; the driver merges them with
:meth:`ViolationReport.merge`.  What a shard replays is picked by one
function, :func:`repro.trace.replay.events_to_replay`: its memory events
plus every task end, which carries no location and so reaches every
shard -- each shard frees a finished task's local metadata.
:class:`repro.session.CheckSession` hands every check of a trace here.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from typing import Any, List, Optional, Tuple, Union

from repro.checker import checker_name_of, make_checker
from repro.checker.annotations import AtomicAnnotations
from repro.checker.streaming import StreamingChecker, resolve_window
from repro.checker.supervisor import (
    CheckpointStore,
    ShardOutcome,
    ShardTask,
    WorkerPolicy,
    maybe_inject_fault,
    run_supervised,
)
from repro.errors import CheckerError, TraceError
from repro.report import ViolationReport
from repro.runtime.events import MemoryEvent
from repro.trace.replay import events_to_replay, replay_events
from repro.trace.serialize import (
    TraceReader,
    dpst_from_dict,
    dpst_to_dict,
    open_trace,
    shard_for_location,  # re-exported: the partition every shard agrees on
)
from repro.trace.trace import Trace

#: Any form :func:`repro.checker.make_checker` accepts.
CheckerSpec = Any

TraceSource = Union[Trace, TraceReader, str, "os.PathLike[str]"]


def _require_shardable(checker: CheckerSpec) -> None:
    """Raise :class:`CheckerError` unless *checker* is per-location."""
    prototype = make_checker(checker) if isinstance(checker, str) else checker
    if not getattr(prototype, "location_sharded", False):
        raise CheckerError(
            f"checker {checker_name_of(checker)!r} is not location-sharded "
            "(its verdict depends on cross-location event order); "
            "run it with jobs=1"
        )


def require_checkpoint_to_resume(
    checkpoint_dir: Optional[str], resume: bool
) -> None:
    """Refuse ``resume=True`` when there is no checkpoint to resume from."""
    if resume and checkpoint_dir is None:
        raise CheckerError(
            "resume=True needs checkpoint_dir=: there is no checkpoint "
            "directory to resume from"
        )


def _replay_shard(
    source,
    dpst,
    recorder,
    spec: CheckerSpec,
    annotations: Optional[AtomicAnnotations],
    lca_cache: bool,
    parallel_engine: str,
    shard: int = 0,
    jobs: int = 1,
    lines_from: Optional[TraceReader] = None,
) -> ViolationReport:
    """Replay one shard: the single body behind every offline check.

    ``jobs=1`` runs it in-process as shard 0 over the whole *source* (a
    :class:`Trace` or a :class:`TraceReader`); each ``jobs>1`` worker
    runs it over its own slice -- a reader it filters to *shard*, or the
    events the parent picked for it.  The events come from
    :func:`~repro.trace.replay.events_to_replay`.  The lines the lenient
    reader *lines_from* skips meanwhile are counted here
    (:func:`_charged_skips`), so ``jobs=1`` and ``jobs=N`` totals agree.
    Worker processes each get their own unpickled copy of an instance
    *spec*, so every shard replays into private state.
    """
    checker = make_checker(spec)
    skipped_before = _charged_skips(lines_from, shard)
    report = replay_events(
        events_to_replay(source, checker, shard, jobs, annotations),
        checker,
        dpst=dpst,
        annotations=annotations,
        lca_cache=lca_cache,
        parallel_engine=parallel_engine,
        recorder=recorder,
    )
    if lines_from is not None and recorder is not None and recorder.enabled:
        skipped = _charged_skips(lines_from, shard) - skipped_before
        if skipped:
            recorder.count("trace.lines_skipped", skipped)
    return report


def _charged_skips(reader: Optional[TraceReader], shard: int) -> int:
    """The lenient skips of *reader* that shard *shard* counts.

    Every shard's pass decodes each unstamped v2 line and every v3 event,
    so their skips are counted on shard 0 alone; a v2 line routed by its
    ``"sk"`` stamp is decoded by the one shard that owns it, which counts
    its skip (:attr:`TraceReader.stamped_lines_skipped`).
    """
    if reader is None:
        return 0
    return reader.lines_skipped if shard == 0 else reader.stamped_lines_skipped


# -- worker body (top level so multiprocessing can pickle it) ---------------


def _check_shard(
    payload: Tuple[Any, ...], attempt: int = 0
) -> Tuple[ViolationReport, Optional[dict]]:
    """Replay one shard in a worker; return its report and snapshot.

    *source* is either ``(dpst_dict, events)`` -- the events the parent
    picked for this shard of an in-memory trace -- or a trace file path,
    which the worker streams itself, keeping only its own slice and
    every task end.

    Workers never share a recorder with the parent -- each shard records
    into its own :class:`~repro.obs.MetricsRecorder`, whose snapshot
    travels back as a plain dict (``None`` when not collecting) and is
    merged by :meth:`repro.obs.MetricsRecorder.add_shard`.
    """
    shard_id, jobs, source, strict, collect, options = payload
    maybe_inject_fault(shard_id, attempt)
    recorder = None
    if collect:
        from repro.obs import MetricsRecorder

        recorder = MetricsRecorder()
    started = time.perf_counter()
    if isinstance(source, tuple):
        dpst_dict, events = source
        dpst = None if dpst_dict is None else dpst_from_dict(dpst_dict)
        report = _replay_shard(events, dpst, recorder, **options)
    else:
        with open_trace(source, strict=strict) as reader:
            report = _replay_shard(
                reader, reader.dpst, recorder, shard=shard_id, jobs=jobs,
                lines_from=reader, **options,
            )
    if recorder is None:
        return report, None
    recorder.gauge("worker.elapsed_s", time.perf_counter() - started)
    recorder.gauge("worker.pid", float(os.getpid()))
    return report, recorder.snapshot().to_dict()


def _mp_context(start_method: Optional[str] = None):
    """Resolve the multiprocessing context for worker processes.

    Prefers fork (cheap, inherits the already-imported interpreter);
    an explicit *start_method* (:attr:`WorkerPolicy.start_method`) -- or
    else the ``REPRO_START_METHOD`` environment variable, which the CI
    matrix uses to run the test suite under spawn -- overrides.  All
    worker payloads are picklable, so every start method produces
    identical reports; an unpicklable *checker instance* surfaces as a
    :class:`CheckerError` from the supervisor, not a pickle traceback.
    """
    if start_method is None:
        start_method = os.environ.get("REPRO_START_METHOD") or None
    methods = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in methods:
            raise CheckerError(
                f"start method {start_method!r} is not available on this "
                f"platform (have: {', '.join(methods)})"
            )
        return multiprocessing.get_context(start_method)
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def default_jobs() -> int:
    """Default worker count: one per *usable* CPU.

    ``os.sched_getaffinity`` reflects cgroup and affinity limits --
    CI containers routinely expose 2 usable cores on a 64-core host,
    where ``os.cpu_count()`` would oversubscribe 32x.  Platforms
    without it (macOS) fall back to ``cpu_count``.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platform behavior
            pass
    return os.cpu_count() or 1


def check_sharded(
    source: TraceSource,
    checker: CheckerSpec = "optimized",
    jobs: Optional[int] = None,
    annotations: Optional[AtomicAnnotations] = None,
    lca_cache: bool = True,
    parallel_engine: str = "lca",
    recorder=None,
    policy: Optional[WorkerPolicy] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    strict: Optional[bool] = None,
    streaming: bool = False,
    window: Optional[int] = None,
) -> ViolationReport:
    """Check *source* with ``jobs`` parallel per-location shards.

    Parameters
    ----------
    source:
        A :class:`Trace`, a :class:`TraceReader`, or a trace file path
        (either serialization format; the streaming JSONL format keeps
        memory bounded).
    checker:
        Anything :func:`repro.checker.make_checker` accepts -- a name, a
        checker class, or a pre-built instance.  With ``jobs > 1`` the
        checker must be ``location_sharded``.
    jobs:
        Worker process count; ``None`` means one per usable CPU (cgroup
        aware); ``1`` checks in-process with no multiprocessing at all.
    annotations / lca_cache / parallel_engine:
        Forwarded to replay; *parallel_engine* may be any name in
        :func:`repro.dpst.engines.available_engines` (each worker builds
        its own engine over its shard via the registry), and annotations
        also steer the sharding key so multi-variable groups stay
        together.
    recorder:
        Optional :class:`repro.obs.Recorder`.  When enabled, each worker
        collects a private per-shard snapshot (counters, gauges, spans)
        that the driver folds back in with
        :meth:`~repro.obs.MetricsRecorder.add_shard`: counters sum into
        the parent totals while each shard's spans stay listed under the
        snapshot's ``shards`` array.  Disabled or ``None`` costs nothing.
    policy:
        The worker fault policy, a
        :class:`~repro.checker.supervisor.WorkerPolicy` (default
        ``WorkerPolicy()``): a crashed, erroring, or timed-out worker is
        retried with exponential backoff (``"retry"``), degraded to
        in-process checking after the retries (``"inline"``), or aborts
        the run immediately (``"raise"``); it also carries the
        per-attempt timeout and the multiprocessing start method.  Only
        ``jobs > 1`` starts workers.
    checkpoint_dir / resume:
        With *checkpoint_dir*, every completed shard's report (+ metrics
        snapshot) is persisted as JSON under that directory; with
        ``resume=True`` shards already checkpointed by a compatible
        earlier run (same jobs count and checker) are merged from disk
        instead of re-run, reproducing the fresh-run report exactly.
        ``resume=True`` without *checkpoint_dir* raises
        :class:`CheckerError`.
    strict:
        ``False`` turns on lenient trace ingestion for file sources
        (undecodable JSONL lines are counted as ``trace.lines_skipped``
        and skipped, never silently); ``None`` inherits the reader's
        own mode (``True`` for paths).
    streaming / window:
        ``streaming=True`` wraps the checker in a
        :class:`repro.checker.streaming.StreamingChecker` so every shard
        checks its event stream incrementally with a compaction sweep
        each *window* events (mapped by
        :func:`~repro.checker.streaming.resolve_window`: ``None`` -> the
        default window, ``0`` -> never sweep).  Every shard at every
        ``jobs`` replays task ends, so the optimized checker frees a
        finished task's metadata with or without the wrapper.  Reports
        stay identical to the offline run at every window.

    Returns the merged, deduplicated :class:`ViolationReport`.
    """
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise TraceError(f"jobs must be >= 1, got {jobs}")
    require_checkpoint_to_resume(checkpoint_dir, resume)
    window = resolve_window(window, streaming)
    if streaming and not isinstance(checker, StreamingChecker):
        checker = StreamingChecker(window=window, checker=checker)
    collect = recorder is not None and recorder.enabled

    owned_reader: Optional[TraceReader] = None
    if isinstance(source, (str, os.PathLike)):
        source = owned_reader = open_trace(
            source, strict=True if strict is None else strict
        )
    reader: Optional[TraceReader] = None
    trace: Optional[Trace] = None
    if isinstance(source, TraceReader):
        reader = source
    elif isinstance(source, Trace):
        trace = source
    else:
        raise TraceError(
            f"cannot check {type(source).__name__}: expected a Trace, "
            "a TraceReader, or a trace file path"
        )
    if strict is None:
        strict = reader.strict if reader is not None else True
    path = reader.path if reader is not None else None

    store: Optional[CheckpointStore] = None
    if checkpoint_dir is not None:
        store = CheckpointStore(
            checkpoint_dir,
            jobs=jobs,
            checker=checker_name_of(checker),
            source=path,
            resume=resume,
        )

    # What every shard replays with (see _replay_shard).
    options = dict(
        spec=checker,
        annotations=annotations,
        lca_cache=lca_cache,
        parallel_engine=parallel_engine,
    )
    try:
        if jobs == 1:
            return _check_single(trace, reader, recorder, store, collect, options)
        _require_shardable(checker)
        policy = WorkerPolicy() if policy is None else policy
        return _check_supervised(
            trace, path, jobs, recorder, strict, policy,
            store, _mp_context(policy.start_method), collect, options,
        )
    finally:
        # A worker raising must not leak the handles of a reader this
        # driver opened; readers passed in stay the caller's to close.
        if owned_reader is not None:
            owned_reader.close()


def _check_single(
    trace: Optional[Trace],
    reader: Optional[TraceReader],
    recorder,
    store,
    collect: bool,
    options: dict,
) -> ViolationReport:
    """``jobs=1``: the whole run is shard 0, replayed in-process.

    Checkpointing treats the run as shard 0 too, so
    ``--checkpoint/--resume`` behave uniformly across job counts.  File
    sources are never materialized.
    """
    if store is not None:
        cached = store.load(0)
        if cached is not None:
            if collect:
                recorder.count("sharded.resumed_shards")
            return cached[0]
    source = trace if trace is not None else reader
    report = _replay_shard(
        source, source.dpst, recorder, lines_from=reader, **options
    )
    if store is not None:
        store.store(0, report, None)
    return report


def _check_supervised(
    trace: Optional[Trace],
    path: Optional[str],
    jobs: int,
    recorder,
    strict: bool,
    policy: WorkerPolicy,
    store,
    context,
    collect: bool,
    options: dict,
) -> ViolationReport:
    """The ``jobs > 1`` path: supervised workers, checkpoints, metrics.

    One control flow for the observed and unobserved configurations --
    spans and counters are per-phase, so gating them on *collect* keeps
    the disabled path free of measurable overhead.
    """
    if collect:
        from repro.obs import SPAN_MAP, SPAN_MERGE, SPAN_PARTITION, SPAN_SHARDED

        sharded_span = recorder.span(SPAN_SHARDED)
    else:
        SPAN_MAP = SPAN_MERGE = SPAN_PARTITION = None
        sharded_span = contextlib.nullcontext()

    def span(name):
        return recorder.span(name) if collect else contextlib.nullcontext()

    with sharded_span:
        if trace is not None:
            with span(SPAN_PARTITION):
                dpst_dict = None if trace.dpst is None else dpst_to_dict(trace.dpst)
                checker = make_checker(options["spec"])
                tasks = []
                for index in range(jobs):
                    shard = list(events_to_replay(
                        trace, checker, index, jobs, options["annotations"]
                    ))
                    # A shard holding only task ends has nothing to check.
                    if any(isinstance(event, MemoryEvent) for event in shard):
                        tasks.append(ShardTask(
                            shard_id=index,
                            fn=_check_shard,
                            payload=(
                                index, jobs, (dpst_dict, shard), strict,
                                collect, options,
                            ),
                        ))
            if not tasks:
                if collect:
                    recorder.count("sharded.workers", 0)
                return ViolationReport()
        else:
            tasks = [
                ShardTask(
                    shard_id=shard,
                    fn=_check_shard,
                    payload=(shard, jobs, path, strict, collect, options),
                )
                for shard in range(jobs)
            ]

        # Shards already completed by an earlier interrupted run merge
        # from their checkpoints; only the remainder runs.
        resumed: List[ShardOutcome] = []
        if store is not None and store.resume:
            remaining = []
            for task in tasks:
                cached = store.load(task.shard_id)
                if cached is None:
                    remaining.append(task)
                else:
                    resumed.append(
                        ShardOutcome(
                            shard_id=task.shard_id,
                            report=cached[0],
                            snapshot=cached[1],
                            resumed=True,
                        )
                    )
            tasks = remaining

        def on_event(kind: str, shard_id: int, detail: str) -> None:
            if not collect:
                return
            if kind == "failure":
                recorder.count("sharded.shard_failures")
            elif kind == "retry":
                recorder.count("sharded.retries")
            elif kind == "inline":
                recorder.count("sharded.inline_fallbacks")

        def on_outcome(outcome: ShardOutcome) -> None:
            # Persist the moment a shard completes, not at the end: a
            # later shard aborting the run must not lose finished work.
            if store is not None:
                store.store(outcome.shard_id, outcome.report, outcome.snapshot)

        with span(SPAN_MAP):
            fresh = run_supervised(
                tasks,
                jobs=jobs,
                context=context,
                policy=policy,
                on_event=on_event,
                on_outcome=on_outcome,
            )

        with span(SPAN_MERGE):
            outcomes = sorted(resumed + fresh, key=lambda o: o.shard_id)
            if collect:
                nonempty = 0
                for outcome in outcomes:
                    snapshot = outcome.snapshot
                    if snapshot is None:
                        continue
                    recorder.add_shard(outcome.shard_id, snapshot)
                    if not outcome.resumed:
                        recorder.count("sharded.heartbeats")
                    if snapshot.get("counters", {}).get("trace.events.routed"):
                        nonempty += 1
                recorder.count("sharded.workers", len(fresh))
                recorder.count("sharded.shards_nonempty", nonempty)
                if resumed:
                    recorder.count("sharded.resumed_shards", len(resumed))
            merged = ViolationReport.merge(
                [outcome.report for outcome in outcomes]
            )
    return merged
