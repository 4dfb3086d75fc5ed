"""End-to-end metrics: the paths a user runs, timed with tracing off.

Fig. 13's configurations run each program live -- under the optimized
checker, under Velodrome, and recording its trace to a v3 file -- and the
offline paths check its recorded trace from v2, from v3, streaming, and
as a result-cache hit.  Every time is reported as a multiple of running
the same program uninstrumented, the paper's convention for overheads:
each sample of a path is divided by the mean of the uninstrumented runs
taken just before and just after it.  The pairing is what makes the
numbers steady on a shared host, whose speed drifts by tens of percent
within minutes; absolute events/s are returned too, for reading.

One warm-up round fills lazy caches and sets how often each operation
repeats within a sample; then rounds run, each in a rotated path order,
until the time budget is spent.  Within a round, each program runs
uninstrumented, a path, uninstrumented, the next path, and so on.  The two-worker check is not timed here:
its wall time depends on whether the host's second core is free, so the
traced run attributes it instead (``sharded.*``).
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import tracemalloc
from typing import Callable, Dict, List, Tuple

from repro import CheckSession, run_program
from repro.report import normalize_report, normalized_locations
from repro.trace.serialize import dump_trace

from harness import MIN_ROUNDS, Gate, Item, seconds_of

#: An operation shorter than this repeats within one sample, so tiny
#: kernels are not timed at the scheduler's resolution.
MIN_SAMPLE_S = 0.01
#: Cap on those repetitions.
MAX_REPS = 50


def _same(item: Item, report) -> bool:
    return report is not None and normalize_report(report) == item.reference


def _cache_hit(item: Item, scratch: str):
    session = CheckSession(item.v3)
    report = session.check(cache_dir=item.cache)
    return report if session.cache_info["hit"] else None


def _record(item: Item, scratch: str):
    trace = run_program(item.program, record_trace=True).trace
    dump_trace(trace, scratch, format="columnar")
    return trace


def paths(expected) -> Dict[str, Tuple[Callable, Callable]]:
    """``name -> (operation, verdict check)`` for a workload whose known
    answer is *expected*.  Only the operation is timed."""
    return {
        "uninstrumented": (
            lambda item, scratch: run_program(item.program, build_dpst=False),
            lambda item, result: True,
        ),
        "optimized": (
            lambda item, scratch: run_program(
                item.program, checkers=["optimized"]
            ).reports["optimized"],
            _same,
        ),
        "velodrome": (
            lambda item, scratch: run_program(
                item.program, checkers=["velodrome"]
            ).reports["velodrome"],
            # Velodrome sees only the observed schedule: a subset of the
            # known violations, never anything else.
            lambda item, report: set(normalized_locations(report)) <= expected,
        ),
        "record": (
            _record,
            lambda item, trace: len(trace.memory_events()) == item.events,
        ),
        "check_v2": (lambda item, scratch: CheckSession(item.v2).check(), _same),
        "check_v3": (lambda item, scratch: CheckSession(item.v3).check(), _same),
        "stream": (
            lambda item, scratch: CheckSession(item.v3).check(streaming=True),
            _same,
        ),
        "cache_hit": (_cache_hit, _same),
    }


def sample(path: str, op, verify, item: Item, reps: int, scratch: str,
           gate: Gate) -> float:
    """Mean seconds of *reps* verdict-checked operations of one path."""
    label = f"{item.program.name}/{path}"
    total = 0.0
    gc.collect()
    for _ in range(reps):
        try:
            elapsed, result = seconds_of(lambda: op(item, scratch))
            gate.record(label, verify(item, result))
        except Exception as exc:  # counted as a failed operation
            gate.record(label, False, repr(exc))
            return math.nan
        total += elapsed
    return total / reps


def peak_mb(fn: Callable[[], object]) -> float:
    """``tracemalloc`` peak, in MB, of one call of *fn*."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def measure(items: List[Item], expected, seconds: float, scratch: str,
            gate: Gate, between_rounds: Callable[[float], object]
            ) -> Tuple[Dict[str, float], Dict[str, float], int]:
    """Time every path; return the metrics, absolute events/s, and rounds.

    A path's metric is the median over rounds of its paired ratios,
    geomean over the workload's programs.  *between_rounds* is called
    after each round with the share of *seconds* spent so far.
    """
    table = paths(expected)
    names = [name for name in table if name != "uninstrumented"]
    base_op, base_verify = table["uninstrumented"]
    reps = {}
    for name, (op, verify) in table.items():  # warm-up and calibration
        for index, item in enumerate(items):
            once = sample(name, op, verify, item, 1, scratch, gate)
            fits = MIN_SAMPLE_S / once if once > 0 else 1
            reps[name, index] = max(1, min(MAX_REPS, math.ceil(fits)))
    ratios: Dict[Tuple[str, int], List[float]] = {
        (name, index): [] for name in names for index in range(len(items))
    }
    times = {key: [] for key in ratios}
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    while True:
        started = time.perf_counter()
        shift = rounds % len(names)
        for index, item in enumerate(items):

            def base() -> float:
                return sample("uninstrumented", base_op, base_verify, item,
                              reps["uninstrumented", index], scratch, gate)

            before = base()
            for name in names[shift:] + names[:shift]:
                op, verify = table[name]
                value = sample(name, op, verify, item, reps[name, index],
                               scratch, gate)
                after = base()
                ratios[name, index].append(2 * value / (before + after))
                times[name, index].append(value)
                before = after
        rounds += 1
        between_rounds((time.perf_counter() - start) / seconds if seconds else 1.0)
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - started) > deadline:
            break

    def ratio(name: str) -> float:
        return geomean([
            statistics.median(ratios[name, index]) for index in range(len(items))
        ])

    def eps(name: str) -> float:
        """Events per second: median over rounds of the summed times."""
        return sum(item.events for item in items) / statistics.median(
            sum(times[name, index][r] for index in range(len(items)))
            for r in range(rounds)
        )

    metrics = {
        "online_overhead_x": ratio("optimized"),
        "velodrome_overhead_x": ratio("velodrome"),
        "record_overhead_x": ratio("record"),
        "check_v2_x": ratio("check_v2"),
        "check_v3_x": ratio("check_v3"),
        "stream_x": ratio("stream"),
        "cache_hit_x": ratio("cache_hit"),
    }
    # Peak memory in its own untimed pass (tracemalloc slows the check),
    # on the workload's largest trace.
    largest = max(items, key=lambda item: item.events)
    metrics["check_peak_mb"] = peak_mb(lambda: CheckSession(largest.v3).check())
    metrics["stream_peak_mb"] = peak_mb(
        lambda: CheckSession(largest.v3).check(streaming=True)
    )
    throughput = {name: eps(name) for name in ("check_v2", "check_v3", "stream")}
    return metrics, throughput, rounds
