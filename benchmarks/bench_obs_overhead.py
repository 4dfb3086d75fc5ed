"""BENCH-OBS -- cost of the observability layer on the replay hot path.

The design contract of :mod:`repro.obs` is that the default no-op
recorder is free: checkers accumulate plain integers on their per-event
paths and drivers flush them at phase boundaries, so a run that never
asks for metrics must not pay for them.  This harness checks the claim
on the same >= 100k-event synthetic trace the sharded benchmark uses:

* **baseline** -- the seed-era replay loop, hand-inlined (on_run_begin,
  a bare for-loop of on_memory, on_run_end);
* **disabled** -- :func:`repro.trace.replay.replay_memory_events` with
  no recorder (the default everywhere);
* **enabled**  -- the same replay with a collecting
  :class:`repro.obs.MetricsRecorder`.

The harness exits non-zero when the disabled path costs more than the
threshold (default 2%) over baseline, so CI can hold the line.  The
enabled column is informational -- flush-at-boundaries keeps it cheap,
but it is allowed to cost what it costs.

Two entry points:

* pytest-benchmark (small scale, runs with the rest of the bench suite)::

      PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py --benchmark-only

* standalone harness at full scale::

      PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--events N]
          [--repeats R] [--threshold PCT] [--quick] [--json OUT.json]
"""

import argparse
import gc
import json
import statistics
import sys
import time

import pytest

from repro.checker.optimized import OptAtomicityChecker
from repro.obs import MetricsRecorder
from repro.trace.replay import _make_context, replay_memory_events

try:
    from bench_sharded_pipeline import synthetic_trace
except ImportError:  # pytest imports us as a module, not from benchmarks/
    from benchmarks.bench_sharded_pipeline import synthetic_trace


def baseline_replay(trace) -> None:
    """The seed-era replay loop: no recorder parameter anywhere."""
    checker = OptAtomicityChecker()
    context = _make_context(trace.dpst, None)
    checker.on_run_begin(context)
    for event in trace.memory_events():
        checker.on_memory(event)
    checker.on_run_end(context)


def disabled_replay(trace) -> None:
    replay_memory_events(
        trace.memory_events(), OptAtomicityChecker(), dpst=trace.dpst
    )


def enabled_replay(trace) -> None:
    replay_memory_events(
        trace.memory_events(),
        OptAtomicityChecker(),
        dpst=trace.dpst,
        recorder=MetricsRecorder(),
    )


VARIANTS = [
    ("baseline", baseline_replay),
    ("disabled", disabled_replay),
    ("enabled", enabled_replay),
]


def time_variants(trace, repeats: int):
    """Timings and paired overheads over *repeats* interleaved rounds.

    Each round times every variant once, and overheads are computed
    *within* a round against that round's baseline before taking the
    median across rounds.  Pairing inside a round cancels the slow drift
    (allocator growth, shared-host contention) that makes independent
    best-of-N comparisons of near-identical code paths read a few
    percent apart in either direction.  The variant order rotates each
    round, so no variant always runs in the first slot of a round.

    Returns ``(best_seconds, median_overhead_pct)`` dicts by variant.
    """
    best = {name: float("inf") for name, _ in VARIANTS}
    ratios = {name: [] for name, _ in VARIANTS}
    for round_index in range(repeats):
        shift = round_index % len(VARIANTS)
        round_times = {}
        for name, fn in VARIANTS[shift:] + VARIANTS[:shift]:
            gc.collect()  # no variant pays for the previous one's garbage
            started = time.perf_counter()
            fn(trace)
            round_times[name] = time.perf_counter() - started
            best[name] = min(best[name], round_times[name])
        base = round_times["baseline"]
        for name, _ in VARIANTS:
            ratios[name].append(100.0 * (round_times[name] - base) / base)
    overheads = {
        name: statistics.median(values) for name, values in ratios.items()
    }
    return best, overheads


# -- pytest-benchmark hooks --------------------------------------------------

BENCH_EVENTS = 20_000


@pytest.fixture(scope="module")
def bench_trace():
    return synthetic_trace(BENCH_EVENTS)


@pytest.mark.parametrize("variant", [name for name, _ in VARIANTS])
def test_obs_overhead(benchmark, bench_trace, variant):
    fn = dict(VARIANTS)[variant]
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["events"] = BENCH_EVENTS
    benchmark(fn, bench_trace)


# -- standalone harness ------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--threshold", type=float, default=2.0,
        help="max tolerated disabled-vs-baseline overhead, percent",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: fewer events, laxer threshold (noise floor "
        "dominates at small scale)",
    )
    parser.add_argument("--json", metavar="OUT.json", default=None)
    args = parser.parse_args(argv)

    events = 10_000 if args.quick else args.events
    threshold = 10.0 if args.quick else args.threshold

    print(f"generating {events} memory events ...", flush=True)
    trace = synthetic_trace(events)
    # One throwaway pass warms allocator/caches before timing anything.
    disabled_replay(trace)

    timings, overheads = time_variants(trace, args.repeats)

    print(f"\n{'variant':>10} {'seconds':>9} {'events/s':>10} {'vs baseline':>12}")
    for name, _ in VARIANTS:
        seconds = timings[name]
        print(
            f"{name:>10} {seconds:>9.3f} {events / seconds:>10.0f} "
            f"{overheads[name]:>+11.1f}%"
        )

    ok = overheads["disabled"] <= threshold
    print(
        f"\ndisabled-path overhead {overheads['disabled']:+.1f}% "
        f"(threshold {threshold:.1f}%): {'OK' if ok else 'FAIL'}"
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "benchmark": "obs_overhead",
                    "events": events,
                    "repeats": args.repeats,
                    "threshold_pct": threshold,
                    "seconds": timings,
                    "overhead_pct": overheads,
                    "ok": ok,
                },
                handle,
                indent=2,
            )
        print(f"json written to {args.json}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
