"""BENCH-SHARD -- throughput of the location-sharded offline pipeline.

Measures events-checked-per-second of ``CheckSession(path, jobs=N).check()``
over a synthetic JSONL trace, in-process (``jobs=1``) versus sharded over
worker processes (``jobs=2``, ``jobs=4``).  The optimized checker's state
is per-location, so shards are embarrassingly parallel; on a multi-core
machine 4 workers should deliver >= 2x the single-process throughput once
the trace is large enough to amortize pool startup and the per-worker
streaming pass.  (On a single-core container the sharded runs only
demonstrate correctness -- there is no hardware parallelism to win.)

Two entry points:

* pytest-benchmark (small scale, runs with the rest of the bench suite)::

      PYTHONPATH=src python -m pytest benchmarks/bench_sharded_pipeline.py --benchmark-only

* standalone harness at full scale (>= 100k memory events)::

      PYTHONPATH=src python benchmarks/bench_sharded_pipeline.py [EVENTS] [JOBS...]
"""

import os
import random
import sys
import time

import pytest

from repro.dpst import ArrayDPST, NodeKind, ROOT_ID
from repro.report import READ, WRITE
from repro.runtime.events import MemoryEvent
from repro.session import CheckSession
from repro.trace.serialize import dump_trace_jsonl
from repro.trace.trace import Trace


def synthetic_trace(memory_events: int, tasks: int = 256, locations: int = 512,
                    shared_fraction: float = 0.02, seed: int = 0) -> Trace:
    """A flat fork-join trace with *memory_events* accesses.

    Every task is a direct child of the root finish (all pairwise
    parallel).  Each access is half of a read-modify-write pair; most
    pairs hit one of *locations* task-partitioned scalars (conflict-free,
    pure checker throughput) and a *shared_fraction* slice hits a small
    contended set so the run produces a non-trivial -- but bounded --
    violation report.  Built directly against the DPST so benchmark setup
    is O(events) instead of paying the instrumented runtime's full cost.
    """
    rng = random.Random(seed)
    dpst = ArrayDPST()
    steps = []
    for _ in range(tasks):
        async_node = dpst.add_node(ROOT_ID, NodeKind.ASYNC)
        steps.append(dpst.add_node(async_node, NodeKind.STEP))
    events = []
    seq = 0
    while len(events) < memory_events:
        task = rng.randrange(tasks)
        if rng.random() < shared_fraction:
            location = ("shared", rng.randrange(8))
        else:
            # Partition private locations by task so they never conflict.
            location = ("private", task, rng.randrange(locations))
        for access_type in (READ, WRITE):  # one RMW pair per iteration
            events.append(
                MemoryEvent(seq, task + 1, steps[task], location, access_type)
            )
            seq += 1
    return Trace(events[:memory_events], dpst=dpst)


def write_trace(path: str, memory_events: int) -> str:
    dump_trace_jsonl(synthetic_trace(memory_events), path)
    return path


# -- pytest-benchmark hooks --------------------------------------------------

BENCH_EVENTS = 20_000


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("shard") / "bench.jsonl")
    return write_trace(path, BENCH_EVENTS)


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_sharded_throughput(benchmark, trace_file, jobs):
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["events"] = BENCH_EVENTS

    report = benchmark(lambda: CheckSession(trace_file, jobs=jobs).check())
    benchmark.extra_info["violations"] = len(report)


# -- standalone harness ------------------------------------------------------


def main(argv=None) -> int:
    import argparse
    import json
    import tempfile

    parser = argparse.ArgumentParser(
        description="sharded-pipeline throughput benchmark"
    )
    parser.add_argument("events", nargs="?", type=int, default=100_000)
    parser.add_argument("jobs", nargs="*", type=int, default=[1, 2, 4])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 10k events regardless of the positional",
    )
    parser.add_argument("--json", metavar="OUT.json", default=None)
    args = parser.parse_args(argv)
    events = 10_000 if args.quick else args.events
    jobs_list = args.jobs or [1, 2, 4]

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.jsonl")
        print(f"generating {events} memory events ...", flush=True)
        write_trace(path, events)
        size_mb = os.path.getsize(path) / 1e6
        print(f"trace file: {size_mb:.1f} MB, cpus={os.cpu_count()}\n")
        print(f"{'jobs':>5} {'seconds':>9} {'events/s':>10} {'speedup':>8}")
        base = None
        for jobs in jobs_list:
            started = time.perf_counter()
            report = CheckSession(path, jobs=jobs).check()
            elapsed = time.perf_counter() - started
            base = elapsed if base is None else base
            rows.append(
                {
                    "jobs": jobs,
                    "seconds": elapsed,
                    "events_per_s": events / elapsed,
                    "speedup": base / elapsed,
                    "violations": len(report),
                }
            )
            print(
                f"{jobs:>5} {elapsed:>9.2f} {events / elapsed:>10.0f} "
                f"{base / elapsed:>7.2f}x   ({len(report)} violation(s))"
            )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "benchmark": "sharded_pipeline",
                    "events": events,
                    "cpus": os.cpu_count(),
                    "runs": rows,
                },
                handle,
                indent=2,
            )
        print(f"json written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
