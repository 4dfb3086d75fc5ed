"""Location-sharded parallel trace checking: the driver behind
:meth:`repro.session.CheckSession.check`.

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
* a :class:`~repro.trace.serialize.TraceReader` -- each worker opens the
  file itself in the reader's mode and keeps only its shard, so the
  parent never materializes the events and traces larger than RAM can be
  checked.

Every offline check -- ``jobs=1`` in-process (the whole run is shard 0),
each ``jobs>1`` worker, cached or not -- replays
through one shard body, :func:`_replay_shard`, which returns a
:class:`~repro.report.ViolationReport`; the driver merges them with
:meth:`ViolationReport.merge` into canonical order
(:func:`repro.cache.normalized_report_copy`), the order a cached
result has.  What a shard replays is picked by one
function, :func:`repro.trace.replay.events_to_replay`: its memory events
plus every task end, which carries no location and so reaches every
shard -- each shard frees a finished task's local metadata.
:class:`repro.session.CheckSession` is the one caller of
:func:`run_check`; it resolves and checks every setting first.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from typing import TYPE_CHECKING, Any, List, Optional, Tuple, Union

from repro.checker import checker_name_of, make_checker
from repro.checker.annotations import AtomicAnnotations
from repro.checker.supervisor import (
    ShardOutcome,
    ShardTask,
    WorkerPolicy,
    maybe_inject_fault,
    run_supervised,
)
from repro.errors import CheckerError
from repro.report import ViolationReport
from repro.runtime.events import MemoryEvent
from repro.trace.replay import events_to_replay, replay_events
from repro.trace.serialize import (
    TraceReader,
    dpst_from_dict,
    dpst_to_dict,
    open_trace,
)
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.cache import ResultCache

#: Any form :func:`repro.checker.make_checker` accepts.
CheckerSpec = Any


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
    source,
    dpst,
    recorder,
    spec: CheckerSpec,
    annotations: Optional[AtomicAnnotations],
    lca_cache: bool,
    parallel_engine: str,
    shard: int = 0,
    jobs: int = 1,
) -> ViolationReport:
    """Replay one shard: the single body behind every offline check.

    ``jobs=1`` runs it in-process as shard 0 over the whole *source* (a
    :class:`Trace` or a :class:`TraceReader`); each ``jobs>1`` worker
    runs it over its own slice -- a reader it filters to *shard*, or the
    events the parent picked for it.  The events come from
    :func:`~repro.trace.replay.events_to_replay`.  The lines a lenient
    reader skips meanwhile are counted here (:func:`_charged_skips`), so
    ``jobs=1`` and ``jobs=N`` totals agree.  Worker processes each get
    their own unpickled copy of an instance *spec*, so every shard
    replays into private state.
    """
    checker = make_checker(spec)
    lines_from = source if isinstance(source, TraceReader) else None
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
                **options,
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


def run_check(
    source: Union[Trace, TraceReader],
    *,
    checker: CheckerSpec,
    jobs: int,
    annotations: Optional[AtomicAnnotations],
    lca_cache: bool,
    parallel_engine: str,
    recorder,
    policy: WorkerPolicy,
    cache: Optional[Tuple[ResultCache, str]],
) -> ViolationReport:
    """Check *source* in ``jobs`` per-location shards; return the merged,
    deduplicated report.

    Every setting arrives resolved and checked by
    :meth:`repro.session.CheckSession.check`, which documents them: a
    ``jobs >= 1``, a checker spec (already wrapped for streaming), and
    the result cache with the check's key, or ``None``.  At ``jobs > 1``
    each shard is served from its cache entry, if an earlier run of this
    check stored one, or run and stored the moment it completes.  A
    reader's workers open its path in the reader's own mode; the reader
    stays the caller's.
    """
    collect = recorder.enabled
    # What every shard replays with (see _replay_shard).
    options = dict(
        spec=checker,
        annotations=annotations,
        lca_cache=lca_cache,
        parallel_engine=parallel_engine,
    )
    if jobs == 1:
        return _replay_shard(source, source.dpst, recorder, **options)
    _require_shardable(checker)
    return _check_supervised(
        source, jobs, recorder, policy, cache,
        _mp_context(policy.start_method), collect, options,
    )


def _check_supervised(
    source: Union[Trace, TraceReader],
    jobs: int,
    recorder,
    policy: WorkerPolicy,
    cache: Optional[Tuple[ResultCache, str]],
    context,
    collect: bool,
    options: dict,
) -> ViolationReport:
    """The ``jobs > 1`` path: supervised workers, shard entries, metrics.

    One control flow for the observed and unobserved configurations --
    spans and counters are per-phase, so gating them on *collect* keeps
    the disabled path free of measurable overhead.
    """
    from repro.cache import normalized_report_copy
    from repro.obs import (
        SPAN_MAP, SPAN_MERGE, SPAN_PARTITION, SPAN_SHARDED, MetricsSnapshot,
    )

    def span(name):
        return recorder.span(name) if collect else contextlib.nullcontext()

    with span(SPAN_SHARDED):
        if isinstance(source, Trace):
            with span(SPAN_PARTITION):
                dpst = source.dpst
                dpst_dict = None if dpst is None else dpst_to_dict(dpst)
                checker = make_checker(options["spec"])
                tasks = []
                for index in range(jobs):
                    shard = list(events_to_replay(
                        source, checker, index, jobs, options["annotations"]
                    ))
                    # A shard holding only task ends has nothing to check.
                    if any(isinstance(event, MemoryEvent) for event in shard):
                        tasks.append(ShardTask(
                            shard_id=index,
                            fn=_check_shard,
                            payload=(
                                index, jobs, (dpst_dict, shard), True,
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
                    payload=(
                        shard, jobs, source.path, source.strict, collect,
                        options,
                    ),
                )
                for shard in range(jobs)
            ]

        # Shards an earlier, interrupted run of this check stored merge
        # from their entries (keyed on the layout too); only the rest runs.
        # An observed check also reruns a shard stored without metrics.
        resumed: List[ShardOutcome] = []
        if cache is not None:
            results, key = cache

            def entry_key(shard_id: int) -> str:
                return f"{key}.{jobs}-{shard_id}"

            remaining = []
            for task in tasks:
                entry = results.load(entry_key(task.shard_id))
                snapshot = None if entry is None else entry.meta.get("metrics")
                if snapshot is not None:
                    try:
                        MetricsSnapshot.from_dict(snapshot)
                    except ValueError:
                        entry = None  # metrics no merge can read: a miss
                elif collect:
                    entry = None  # stored unobserved: no counters to merge
                if entry is None:
                    remaining.append(task)
                else:
                    resumed.append(ShardOutcome(
                        task.shard_id, entry.report, snapshot, resumed=True,
                    ))
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
            # Store the moment a shard completes, not at the end: a later
            # shard aborting the run must not lose finished work.
            if cache is not None:
                results.store(
                    entry_key(outcome.shard_id), outcome.report,
                    meta={"metrics": outcome.snapshot},
                )

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
            merged = normalized_report_copy(ViolationReport.merge(
                [outcome.report for outcome in outcomes]
            ))
    return merged
