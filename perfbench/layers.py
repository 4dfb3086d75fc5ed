"""Per-layer attribution: the benchmark's traced run (``run.py --trace 1``).

Each probe times one layer from outside, through its public functions,
on the same programs and trace files the end-to-end run uses; the
README's metric table says which end-to-end metric each one should move.
Counters come from a :class:`repro.obs.MetricsRecorder` attached to one
check of each kind, so nothing inside ``src/`` is instrumented for it.

Engine time is measured without touching the engines: a logging engine
registered as ``bench-capture`` answers like ``lca`` and records every
``parallel(a, b)`` query of a check, and that stream is replayed on a
fresh engine of each built-in name.  ``checker.self_s`` is the checker's
replay time minus the ``lca`` engine's share of it.

Times are medians over passes (each pass sums over the workload's
programs), after one warm-up pass; counts are workload totals.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List

from repro import CheckSession, MetricsRecorder, run_program
from repro.cache import ResultCache, file_digest, normalized_report_copy
from repro.checker import make_checker
from repro.checker.streaming import StreamingChecker
from repro.dpst.engines import make_engine, register_engine
from repro.runtime.observer import RuntimeObserver
from repro.trace.replay import replay_events, replay_memory_events
from repro.trace.serialize import dump_trace, open_trace

from harness import MIN_ROUNDS, Gate, Item, seconds_of

#: Worker count of the sharded check (the benchmark host has 2 cores).
JOBS = 2
#: Registry name of the query-logging engine.
CAPTURE_ENGINE = "bench-capture"
#: Engines timed on the captured query stream.
ENGINES = ("lca", "labels", "vc", "depa")
#: Counts reported as workload totals, under these names.
COUNTS = (
    "runtime.memory_events",
    "runtime.tasks",
    "dpst.nodes",
    "checker.accesses_checked",
    "checker.optimized.promotions",
    "checker.optimized.promotions_blocked",
    "checker.optimized.pattern_checks",
    "checker.optimized.memo_hits",
    "checker.optimized.global_entries",
    "checker.optimized.local_entries",
    "checker.optimized.tracked_locations",
    "report.violations",
    "engine.queries",
    "engine.unique",
    "engine.hops",
    "streaming.compactions",
    "streaming.evicted",
    "streaming.peak_window",
    "trace.bytes_v2",
    "trace.bytes_v3",
    "cache.entry_bytes",
)


class LoggingEngine:
    """Delegates to *inner* and logs every ``parallel(a, b)`` query."""

    def __init__(self, inner, log: List[tuple]) -> None:
        self._inner = inner
        self._log = log

    def parallel(self, a: int, b: int) -> bool:
        self._log.append((a, b))
        return self._inner.parallel(a, b)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def register_capture() -> List[tuple]:
    """(Re)register ``bench-capture`` over ``lca``; return the list it logs to."""
    log: List[tuple] = []
    register_engine(
        CAPTURE_ENGINE,
        lambda tree, cache=True: LoggingEngine(make_engine("lca", tree, cache=cache), log),
    )
    return log


def seconds(fn) -> float:
    return seconds_of(fn)[0]


def _drain(events) -> int:
    count = 0
    for _ in events:
        count += 1
    return count


def _open(path: str):
    with open_trace(path) as reader:
        return reader.dpst


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def probe(item: Item, work: str, gate: Gate) -> tuple:
    """One pass over every layer for one program: ``(times, counts)``."""
    name = item.program.name
    program = item.program
    t: Dict[str, float] = {}
    counts: Dict[str, float] = {}

    # runtime: bare execution, + DPST, + observer dispatch, + each analysis
    t["runtime.bare"] = seconds(lambda: run_program(program, build_dpst=False))
    t["runtime.dpst"] = seconds(lambda: run_program(program, build_dpst=True))
    t["runtime.dispatch"] = seconds(
        lambda: run_program(program, observers=[RuntimeObserver()])
    )
    t["online.optimized"], result = seconds_of(
        lambda: run_program(program, checkers=["optimized"])
    )
    gate.same(f"{name}/online", item, result.reports["optimized"])
    t["online.velodrome"] = seconds(lambda: run_program(program, checkers=["velodrome"]))
    t["trace.record"], recorded = seconds_of(
        lambda: run_program(program, record_trace=True).trace
    )
    t["trace.write_v3"] = seconds(
        lambda: dump_trace(recorded, os.path.join(work, "probe.trc"), format="columnar")
    )
    del recorded, result
    runtime = MetricsRecorder()
    run_program(program, collect_stats=True, recorder=runtime)
    snapshot = runtime.snapshot()
    counts.update(snapshot.counters)
    counts.update(snapshot.gauges)

    # trace: open, full decode, both shards' reads
    t["trace.open"] = seconds(lambda: _open(item.v3))
    with open_trace(item.v2) as reader:
        t["trace.decode_v2"] = seconds(lambda: _drain(reader.memory_events()))
    with open_trace(item.v3) as reader:
        t["trace.decode_v3"] = seconds(lambda: _drain(reader.memory_events()))
        t["trace.shard_read_v3"] = seconds(lambda: sum(
            _drain(reader.memory_events(shard=shard, jobs=JOBS))
            for shard in range(JOBS)
        ))
        events = list(reader.memory_events())
        stream = list(reader.events())
        dpst = reader.dpst
    counts["trace.bytes_v2"] = os.path.getsize(item.v2)
    counts["trace.bytes_v3"] = os.path.getsize(item.v3)

    # checker over pre-decoded events; the engine's share from its queries
    t["checker.replay"], report = seconds_of(
        lambda: replay_memory_events(events, make_checker("optimized"), dpst=dpst)
    )
    gate.same(f"{name}/replay", item, report)
    queries = register_capture()
    gate.same(f"{name}/capture", item, replay_memory_events(
        events, make_checker("optimized"), dpst=dpst, parallel_engine=CAPTURE_ENGINE
    ))
    for engine_name in ENGINES:
        engine = make_engine(engine_name, dpst)
        parallel = engine.parallel

        def answer() -> None:
            for a, b in queries:
                parallel(a, b)

        t[f"engine.{engine_name}.query"] = seconds(answer)
        if engine_name == "lca":
            counts.update(engine.stats.as_metrics())
    streaming = StreamingChecker()
    t["streaming.replay"], report = seconds_of(
        lambda: replay_events(stream, streaming, dpst=dpst)
    )
    gate.same(f"{name}/streaming replay", item, report)
    counts.update(streaming.metrics())
    del events, stream

    # session, sharded and cache paths
    t["session.open"] = seconds(lambda: CheckSession(item.v3))
    t["session.check_v3"], report = seconds_of(lambda: CheckSession(item.v3).check())
    gate.same(f"{name}/check", item, report)
    traced = MetricsRecorder()
    t["session.check_v3_traced"], report = seconds_of(
        lambda: CheckSession(item.v3, recorder=traced).check()
    )
    gate.same(f"{name}/traced check", item, report)
    counts.update(traced.snapshot().counters)
    sharded = MetricsRecorder()
    gate.same(f"{name}/traced sharded check", item,
              CheckSession(item.v3, jobs=JOBS, recorder=sharded).check())
    snapshot = sharded.snapshot()
    t["sharded.map"] = snapshot.spans["check/sharded/map"].total_s
    t["sharded.merge"] = snapshot.spans["check/sharded/merge"].total_s
    workers = [shard["gauges"]["worker.elapsed_s"] for shard in snapshot.shards]
    t["sharded.worker_max"] = max(workers)
    t["sharded.worker_median"] = statistics.median(workers)

    t["cache.digest"] = seconds(lambda: file_digest(item.v3))
    session = CheckSession(item.v3)
    session.check(cache_dir=item.cache)
    gate.record(f"{name}/cache hit", session.cache_info["hit"])
    cache_key = session.cache_info["key"]
    t["cache.load"], entry = seconds_of(lambda: ResultCache(item.cache).load(cache_key))
    gate.same(f"{name}/cache load", item, entry.report)
    t["cache.store"] = seconds(
        lambda: ResultCache(os.path.join(work, "store")).store(cache_key, entry.report)
    )
    t["report.normalize"] = seconds(lambda: normalized_report_copy(entry.report))
    counts["cache.entry_bytes"] = entry.nbytes
    return t, {key: counts.get(key, 0) for key in COUNTS}


def measure(items: List[Item], seconds_budget: float, work: str, gate: Gate) -> Dict[str, float]:
    """Every per-layer metric of one workload, plus ``bench.passes``."""
    for item in items:  # warm-up pass
        probe(item, work, gate)
    passes: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds_budget
    while True:
        started = time.perf_counter()
        times: Dict[str, float] = {}
        counts: Dict[str, float] = {}
        for item in items:
            item_times, item_counts = probe(item, work, gate)
            for key, value in item_times.items():
                times[key] = times.get(key, 0.0) + value
            for key, value in item_counts.items():
                counts[key] = counts.get(key, 0) + value
        passes.append(times)
        now = time.perf_counter()
        if len(passes) >= MIN_ROUNDS and now + (now - started) > deadline:
            break
    med = {key: statistics.median(p[key] for p in passes) for key in passes[0]}
    dispatch = med["runtime.dispatch"]
    metrics = dict(counts)
    metrics.update({
        "runtime.bare_s": med["runtime.bare"],
        "runtime.dpst_s": med["runtime.dpst"],
        "runtime.dispatch_s": dispatch,
        "checker.online_s": med["online.optimized"] - dispatch,
        "checker.velodrome_online_s": med["online.velodrome"] - dispatch,
        "trace.record_s": med["trace.record"] - dispatch,
        "trace.write_v3_s": med["trace.write_v3"],
        "trace.open_s": med["trace.open"],
        "trace.decode_v2_s": med["trace.decode_v2"],
        "trace.decode_v3_s": med["trace.decode_v3"],
        "trace.shard_read_v3_s": med["trace.shard_read_v3"],
        "sharded.map_s": med["sharded.map"],
        "sharded.merge_s": med["sharded.merge"],
        "sharded.skew": med["sharded.worker_max"] / med["sharded.worker_median"],
        "checker.replay_s": med["checker.replay"],
        "checker.self_s": med["checker.replay"] - med["engine.lca.query"],
        "checker.memo_hit_ratio": _ratio(
            counts["checker.optimized.memo_hits"], counts["checker.accesses_checked"]
        ),
        "engine.query_s": med["engine.lca.query"],
        "engine.unique_ratio": _ratio(counts["engine.unique"], counts["engine.queries"]),
        "engine.hops_per_unique": _ratio(counts["engine.hops"], counts["engine.unique"]),
        "streaming.overhead_s": med["streaming.replay"] - med["checker.replay"],
        "session.open_s": med["session.open"],
        "session.check_v3_s": med["session.check_v3"],
        "cache.digest_s": med["cache.digest"],
        "cache.load_s": med["cache.load"],
        "cache.store_s": med["cache.store"],
        "report.normalize_s": med["report.normalize"],
        "bench.trace_overhead": med["session.check_v3_traced"] / med["session.check_v3"],
        "bench.passes": len(passes),
    })
    for engine_name in ENGINES:
        metrics[f"engine.{engine_name}.query_s"] = med[f"engine.{engine_name}.query"]
    return metrics
