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
:meth:`ViolationReport.merge`.  :class:`repro.session.CheckSession` hands
every check of a trace here.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from typing import Any, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

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
from repro.trace.replay import replay_events, replay_memory_events
from repro.trace.serialize import (
    TraceReader,
    dpst_from_dict,
    dpst_to_dict,
    location_shard_key,
    open_trace,
)
from repro.trace.trace import Trace

Location = Hashable

#: Any form :func:`repro.checker.make_checker` accepts.
CheckerSpec = Any

TraceSource = Union[Trace, TraceReader, str, "os.PathLike[str]"]

def shard_for_location(location: Location, jobs: int) -> int:
    """Deterministic shard index of *location* in ``[0, jobs)``.

    Keys on :func:`~repro.trace.serialize.location_shard_key` (CRC-32 of
    the location's ``repr``) rather than Python's builtin ``hash``: string
    hashing is randomized per process (PYTHONHASHSEED), and every worker
    process must agree on the partition.  The same key is stamped on v2
    trace lines, so file-streaming workers route lines without decoding
    them.
    """
    if jobs <= 1:
        return 0
    return location_shard_key(location) % jobs


def partition_memory_events(
    events: Iterable[object],
    jobs: int,
    annotations: Optional[AtomicAnnotations] = None,
) -> List[List[MemoryEvent]]:
    """Bucket the memory events of *events* into ``jobs`` shards.

    Relative order within each shard is trace order.  With non-trivial
    *annotations*, bucketing keys on ``metadata_key`` so every member of a
    multi-variable group shares a shard (they share a metadata cell).
    """
    shards: List[List[MemoryEvent]] = [[] for _ in range(jobs)]
    keyed = annotations is not None and not annotations.trivial
    for event in events:
        if not isinstance(event, MemoryEvent):
            continue
        key = annotations.metadata_key(event.location) if keyed else event.location
        shards[shard_for_location(key, jobs)].append(event)
    return shards


def _require_shardable(checker: CheckerSpec) -> None:
    """Raise :class:`CheckerError` unless *checker* is per-location."""
    prototype = make_checker(checker) if isinstance(checker, str) else checker
    if not getattr(prototype, "location_sharded", False):
        raise CheckerError(
            f"checker {checker_name_of(checker)!r} is not location-sharded "
            "(its verdict depends on cross-location event order); "
            "run it with jobs=1"
        )


def _replay_shard(
    events: Iterable[object],
    dpst,
    recorder,
    spec: CheckerSpec,
    annotations: Optional[AtomicAnnotations],
    lca_cache: bool,
    parallel_engine: str,
    lines_from: Optional[TraceReader] = None,
) -> ViolationReport:
    """Replay one shard: the single body behind every offline check.

    ``jobs=1`` runs it in-process as shard 0; each ``jobs>1`` worker runs
    it over its own slice.  The lines the lenient reader *lines_from*
    skips meanwhile are counted here.  Every worker scans the same
    unstamped garbage lines, so only shard 0 passes its reader: then
    ``jobs=1`` and ``jobs=N`` totals agree.

    A :class:`~repro.checker.streaming.StreamingChecker` is fed through
    :func:`~repro.trace.replay.replay_events`, so task ends in the stream
    release finished tasks; every other checker goes through
    :func:`~repro.trace.replay.replay_memory_events`.  Worker processes
    each get their own unpickled copy of an instance *spec*, so every
    shard replays into private state.
    """
    checker = make_checker(spec)
    skipped_before = lines_from.lines_skipped if lines_from is not None else 0
    replay = (
        replay_events
        if isinstance(checker, StreamingChecker)
        else replay_memory_events
    )
    report = replay(
        events,
        checker,
        dpst=dpst,
        annotations=annotations,
        lca_cache=lca_cache,
        parallel_engine=parallel_engine,
        recorder=recorder,
    )
    if lines_from is not None and recorder is not None and recorder.enabled:
        skipped = lines_from.lines_skipped - skipped_before
        if skipped:
            recorder.count("trace.lines_skipped", skipped)
    return report


# -- worker body (top level so multiprocessing can pickle it) ---------------


def _check_shard(
    payload: Tuple[Any, ...], attempt: int = 0
) -> Tuple[ViolationReport, Optional[dict]]:
    """Replay one shard in a worker; return its report and snapshot.

    *source* is either ``(dpst_dict, events)`` -- a shard of an in-memory
    trace, partitioned in the parent -- or a trace file path, which the
    worker streams itself, keeping only its own slice.  The shard filters
    yield memory events only, so a streaming worker never sees a task
    end: it evicts stale cells but releases no finished task (see
    :func:`check_sharded`).

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
        with TraceReader(source, strict=strict) as reader:
            annotations = options["annotations"]
            if annotations is not None and not annotations.trivial:
                # Group-aware key: the line's "sk" stamp (raw location) may
                # not match metadata_key, so decode every line and re-key.
                events = (
                    event
                    for event in reader.memory_events()
                    if shard_for_location(
                        annotations.metadata_key(event.location), jobs
                    ) == shard_id
                )
            else:
                # Fast path: the reader shard-filters raw lines by their
                # "sk" stamp, so this worker decodes only its 1/jobs slice.
                events = reader.memory_events(shard=shard_id, jobs=jobs)
            lines_from = reader if shard_id == 0 else None
            report = _replay_shard(
                events, reader.dpst, recorder, lines_from=lines_from, **options
            )
    if recorder is None:
        return report, None
    recorder.gauge("worker.elapsed_s", time.perf_counter() - started)
    recorder.gauge("worker.pid", float(os.getpid()))
    return report, recorder.snapshot().to_dict()


def _mp_context(start_method: Optional[str] = None):
    """Resolve the multiprocessing context for worker processes.

    Prefers fork (cheap, inherits the already-imported interpreter);
    an explicit *start_method* -- or the ``REPRO_START_METHOD``
    environment variable, which the CI matrix uses to run the test
    suite under spawn -- overrides.  All worker payloads are picklable,
    so every start method produces identical reports; an unpicklable
    *checker instance* surfaces as a :class:`CheckerError` from the
    supervisor, not a pickle traceback.
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
    on_shard_failure: str = "retry",
    max_retries: int = 2,
    retry_backoff: float = 0.05,
    shard_timeout: Optional[float] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    strict: Optional[bool] = None,
    start_method: Optional[str] = None,
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
    on_shard_failure / max_retries / retry_backoff / shard_timeout:
        The fault-tolerance policy (see
        :class:`~repro.checker.supervisor.WorkerPolicy`): a crashed,
        erroring, or timed-out worker is retried with exponential
        backoff (``"retry"``, the default), degraded to in-process
        checking after the retries (``"inline"``), or aborts the run
        immediately (``"raise"``).  ``shard_timeout`` bounds one
        attempt's wall-clock seconds; ``None`` means no timeout.
    checkpoint_dir / resume:
        With *checkpoint_dir*, every completed shard's report (+ metrics
        snapshot) is persisted as JSON under that directory; with
        ``resume=True`` shards already checkpointed by a compatible
        earlier run (same jobs count and checker) are merged from disk
        instead of re-run, reproducing the fresh-run report exactly.
    strict:
        ``False`` turns on lenient trace ingestion for file sources
        (undecodable JSONL lines are counted as ``trace.lines_skipped``
        and skipped, never silently); ``None`` inherits the reader's
        own mode (``True`` for paths).
    start_method:
        Multiprocessing start method override (``"fork"``/``"spawn"``/
        ``"forkserver"``); default prefers fork, and the
        ``REPRO_START_METHOD`` environment variable overrides too.
    streaming / window:
        ``streaming=True`` wraps the checker in a
        :class:`repro.checker.streaming.StreamingChecker` so every shard
        checks its event stream incrementally with a compaction sweep
        each *window* events (mapped by
        :func:`~repro.checker.streaming.resolve_window`: ``None`` -> the
        default window, ``0`` -> never sweep).  At ``jobs=1`` the full
        event stream is replayed, so ended tasks free their metadata.
        Each ``jobs>1`` worker compacts its own shard, but replays memory
        events only -- the shard filters drop task ends -- so it evicts
        stale cells and never releases a finished task.  Reports stay
        identical to the offline run at every window.

    Returns the merged, deduplicated :class:`ViolationReport`.
    """
    jobs = default_jobs() if jobs is None else jobs
    if jobs < 1:
        raise TraceError(f"jobs must be >= 1, got {jobs}")
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
        policy = WorkerPolicy(
            on_failure=on_shard_failure,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            timeout_s=shard_timeout,
        )
        return _check_supervised(
            trace, path, jobs, recorder, strict, policy,
            store, _mp_context(start_method), collect, options,
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
    sources are never materialized, and a streaming checker gets the
    full event stream so ended tasks are released.
    """
    if store is not None:
        cached = store.load(0)
        if cached is not None:
            if collect:
                recorder.count("sharded.resumed_shards")
            return cached[0]
    options = dict(options, spec=make_checker(options["spec"]))
    full = isinstance(options["spec"], StreamingChecker)
    events: Iterable[object]
    if trace is not None:
        events = trace.events if full else trace.memory_events()
        dpst = trace.dpst
    else:
        events = reader.events() if full else reader.memory_events()
        dpst = reader.dpst
    report = _replay_shard(events, dpst, recorder, lines_from=reader, **options)
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
                shards = partition_memory_events(
                    trace.events, jobs, options["annotations"]
                )
                dpst_dict = None if trace.dpst is None else dpst_to_dict(trace.dpst)
                tasks = [
                    ShardTask(
                        shard_id=index,
                        fn=_check_shard,
                        payload=(
                            index, jobs, (dpst_dict, shard), strict, collect,
                            options,
                        ),
                    )
                    for index, shard in enumerate(shards)
                    if shard
                ]
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
