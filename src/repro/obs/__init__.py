"""repro.obs -- the unified observability layer of the checking pipeline.

The paper's whole evaluation (Section 5, Figures 13/14, Table 1) is
instrumentation counts: accesses checked, pattern promotions, metadata
footprint, per-phase overhead.  This package gives the reproduction one
surface for all of it:

* :class:`~repro.obs.recorder.Recorder` -- the collection protocol:
  counters, gauges and nestable phase spans.  The default
  everywhere is :data:`~repro.obs.recorder.NULL_RECORDER`, a no-op whose
  cost on the hot paths is held under 2% by
  ``benchmarks/bench_obs_overhead.py``.
* :class:`~repro.obs.recorder.MetricsRecorder` -- the collecting
  implementation, snapshot-able into a
  :class:`~repro.obs.metrics.MetricsSnapshot` that merges across the
  sharded pipeline's worker processes exactly like
  :meth:`repro.report.ViolationReport.merge` merges findings.
* :data:`METRIC_NAMES` -- the canonical metric name registry.  Checkers
  expose their accumulated counters through ``metrics()`` under these
  names, so an in-process run (``jobs=1``), a sharded run (``jobs=4``)
  and a live ``run_program`` all report field-for-field comparable
  numbers.

Phase span names (nesting reflects the pipeline)::

    record          program execution with trace recording
    dpst.build      DPST materialization (runtime build or file header)
    check           one CheckSession.check() call
    replay          event replay through one checker
    sharded         the sharded driver, containing:
      partition       bucketing in-memory events by location shard
      map             the worker pool pass (per-shard spans live in the
                      per-shard snapshots under ``shards[i]``)
      merge           ViolationReport + metrics merge

Flush helpers (:func:`flush_observer_metrics`, :func:`flush_engine_stats`)
move accumulated counters into a recorder at phase boundaries; hot loops
never call the recorder per event.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsSnapshot,
    SpanStats,
    is_metrics_dict,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    NULL_SPAN,
    MetricsRecorder,
    Recorder,
)

__all__ = [
    "METRICS_SCHEMA",
    "METRIC_NAMES",
    "SHARD_SENSITIVE_METRICS",
    "SPAN_CHECK",
    "SPAN_DPST_BUILD",
    "SPAN_MAP",
    "SPAN_MERGE",
    "SPAN_PARTITION",
    "SPAN_RECORD",
    "SPAN_REPLAY",
    "SPAN_SHARDED",
    "MetricsRecorder",
    "MetricsSnapshot",
    "NULL_RECORDER",
    "NULL_SPAN",
    "Recorder",
    "SpanStats",
    "comparable_counters",
    "flush_engine_stats",
    "flush_observer_metrics",
    "is_metrics_dict",
    "register_engine_metric_names",
]

# -- canonical span names ----------------------------------------------------

SPAN_RECORD = "record"
SPAN_DPST_BUILD = "dpst.build"
SPAN_CHECK = "check"
SPAN_REPLAY = "replay"
SPAN_SHARDED = "sharded"
SPAN_PARTITION = "partition"
SPAN_MAP = "map"
SPAN_MERGE = "merge"

# -- canonical metric names --------------------------------------------------

#: The metric name registry: every counter/gauge the pipeline emits, with
#: its meaning.  ``docs/api.md`` renders this table; tests assert that
#: checkers only emit registered names.
METRIC_NAMES: Dict[str, str] = {
    # replay / routing
    "trace.events.routed": "memory events delivered to a checker during replay",
    # parallelism engines (EngineStats; Table 1 columns)
    "engine.queries": "parallelism queries issued (Table 1: LCA queries)",
    "engine.unique": "distinct step pairs among the queries (cache misses)",
    "engine.hops": "parent-link hops / label entries walked by queries",
    # checker-generic
    "checker.accesses_checked": "memory accesses a checker actually analyzed",
    # optimized checker (Figures 6-9)
    "checker.optimized.promotions": "two-access patterns promoted local -> global",
    "checker.optimized.promotions_blocked": "candidate patterns dropped (parallel occupant)",
    "checker.optimized.memo_hits": "re-checks skipped by global-space version stamps",
    "checker.optimized.pattern_checks": "stored patterns tested against an interleaver",
    "checker.optimized.global_entries": "occupied global access-history entries (<=12/location in paper mode)",
    "checker.optimized.local_entries": "occupied per-task local entries (0 once every task has ended)",
    "checker.optimized.cells_freed": "local cells freed at their task's step changes and end",
    "checker.optimized.tracked_locations": "locations with a global space",
    # basic checker (Figure 3)
    "checker.basic.history_entries": "stored access-history entries (grows with accesses)",
    "checker.basic.history_peak": "largest single-location history",
    "checker.basic.tracked_locations": "locations with a history",
    # velodrome baseline
    "checker.velodrome.edges": "happens-before edges materialized",
    "checker.velodrome.transactions": "transactions on at least one conflict edge",
    # regiontrack baseline (arXiv:2008.04479)
    "checker.regiontrack.regions": "per-(location, step) region summaries materialized",
    "checker.regiontrack.pair_witnesses": "two-access pattern witnesses stored (<=4/region)",
    "checker.regiontrack.lockset_entries": "distinct-lockset first accesses stored",
    "checker.regiontrack.triple_checks": "pair/single witnesses tested for an unserializable triple",
    "checker.regiontrack.memo_hits": "interleaver probes skipped by pair-generation stamps",
    "checker.regiontrack.tracked_locations": "locations with region summaries",
    # race detector
    "checker.racedetector.races": "distinct data races recorded",
    # findings
    "report.violations": "distinct violations in the checker's report",
    "report.raw_findings": "total findings before deduplication",
    # runtime (live runs only)
    "dpst.nodes": "DPST nodes materialized (gauge)",
    "runtime.lock_version_bumps": "fresh versioned lock names minted on re-acquisition",
    "runtime.tasks": "tasks executed",
    "runtime.memory_events": "instrumented shared-memory accesses",
    "runtime.lock_ops": "lock acquisitions + releases",
    "runtime.syncs": "sync / finish-scope closures",
    # sharded driver bookkeeping
    "sharded.workers": "worker processes used by the sharded driver",
    "sharded.shards_nonempty": "shards that received at least one event",
    "sharded.heartbeats": "worker completions observed by the driver",
    # fault tolerance (worker supervision, shard cache entries, lenient reads)
    "sharded.shard_failures": "worker attempts that crashed, errored, or timed out",
    "sharded.retries": "shard attempts relaunched after a failure",
    "sharded.inline_fallbacks": "shards degraded to in-process checking after exhausting retries",
    "sharded.resumed_shards": "shards merged from result-cache shard entries instead of re-run",
    "trace.lines_skipped": "undecodable trace lines skipped by a lenient reader",
    # per-worker (inside shard snapshots)
    "worker.elapsed_s": "wall seconds one worker spent on its shard",
    "worker.pid": "OS pid of the worker process",
    # content-addressed result cache (repro.cache / CheckSession cache_dir=)
    "cache.hit": "checks served from the content-addressed result cache",
    "cache.miss": "checks computed fresh and stored into the result cache",
    "cache.bytes": "bytes moved through the result cache (stored on miss, read on hit)",
    "cache.bypass": "cache requests refused (uncacheable checker or annotations)",
    # differential fuzzing (repro fuzz / repro.fuzz)
    "fuzz.runs": "programs pushed through the differential oracle",
    "fuzz.comparisons": "oracle legs compared against the reference verdict",
    "fuzz.events_checked": "memory events in the oracle's reference traces",
    "fuzz.disagreements": "broken equivalences found by the oracle",
    "fuzz.shrink_steps": "accepted delta-debugging reductions while minimizing reproducers",
}

#: Counters whose totals legitimately differ between ``jobs=1`` and
#: ``jobs=N``: per-process memo tables make uniqueness/hop counts local
#: to each worker.  Everything else in :data:`METRIC_NAMES` that the
#: offline pipeline emits must total identically regardless of sharding
#: (enforced by ``tests/test_metrics_sharded.py``).
SHARD_SENSITIVE_METRICS = frozenset({"engine.unique", "engine.hops"})


def register_engine_metric_names(engine_name: str) -> None:
    """Reserve the per-engine ``engine.<name>.*`` metric names.

    Called by :func:`repro.dpst.engines.register_engine` for every
    registered engine (built-in or third-party), so per-engine counters
    are always legal :data:`METRIC_NAMES` members and render in
    ``repro stats`` output.
    """
    METRIC_NAMES.setdefault(
        f"engine.{engine_name}.queries",
        f"parallelism queries answered by the {engine_name!r} engine",
    )
    METRIC_NAMES.setdefault(
        f"engine.{engine_name}.unique",
        f"distinct node pairs queried on the {engine_name!r} engine",
    )
    METRIC_NAMES.setdefault(
        f"engine.{engine_name}.hops",
        f"traversal/maintenance work units spent by the {engine_name!r} engine",
    )


def _shard_sensitive(name: str) -> bool:
    """Uniqueness/hop counts are per-process; aggregate and per-engine
    variants (``engine.unique``, ``engine.depa.hops``, ...) all qualify."""
    return name.startswith("engine.") and (
        name.endswith(".unique") or name.endswith(".hops")
    )


def comparable_counters(counters: Dict[str, float]) -> Dict[str, float]:
    """The shard-stable slice of *counters*.

    Drops :data:`SHARD_SENSITIVE_METRICS` (including their per-engine
    ``engine.<name>.unique`` / ``engine.<name>.hops`` variants) and the
    sharded driver's own bookkeeping (``sharded.*``), leaving exactly the
    counters whose ``jobs=1`` and ``jobs=N`` totals must agree.
    """
    return {
        name: value
        for name, value in counters.items()
        if name not in SHARD_SENSITIVE_METRICS
        and not _shard_sensitive(name)
        and not name.startswith("sharded.")
        and not name.startswith("worker.")
    }


# -- flush helpers -----------------------------------------------------------


def flush_observer_metrics(recorder: Recorder, observer: Any) -> None:
    """Move an observer's accumulated ``metrics()`` into *recorder*.

    Observers accumulate plain integers on their hot paths; drivers call
    this once per phase.  Observers without a ``metrics`` method (or with
    an empty dict) are ignored.
    """
    if not recorder.enabled:
        return
    metrics = getattr(observer, "metrics", None)
    if metrics is None:
        return
    for name, value in metrics().items():
        recorder.count(name, value)


def flush_engine_stats(recorder: Recorder, engine: Optional[Any]) -> None:
    """Flush a parallelism engine's :class:`~repro.dpst.stats.EngineStats`.

    Emits the aggregate ``engine.*`` counters plus, when the engine
    carries its registry name (``engine_name``), the per-engine
    ``engine.<name>.*`` variants so mixed-engine snapshots stay
    distinguishable.
    """
    if not recorder.enabled or engine is None:
        return
    stats = engine.stats
    name = getattr(engine, "engine_name", None)
    for metric, value in stats.as_metrics(name).items():
        recorder.count(metric, value)


# Importing the engine registry ensures the built-in engines' per-engine
# metric names are reserved the moment repro.obs is usable.  Guarded so a
# partially initialized interpreter (circular-import edge) degrades to
# aggregate-only names instead of failing; the dpst chain never imports
# repro.obs at module level, so in practice this always succeeds.
try:  # pragma: no branch
    from repro.dpst import engines as _engines  # noqa: F401  (side effect)
except ImportError:  # pragma: no cover - defensive only
    pass
