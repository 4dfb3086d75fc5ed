"""BENCH-TRACEFMT -- v2 JSONL vs v3 columnar trace read performance.

Measures, over one synthetic trace serialized in both formats:

* **full decode** -- iterating every event (``open_trace(path).events()``);
* **sharded read** -- the hot path of the sharded pipeline: each of N
  shard workers streaming just its own memory events
  (``memory_events(shard=k, jobs=N)``, summed over all shards in one
  process so the comparison is pure format cost, no pool noise);
* **file size** -- bytes on disk (v3 frames are zlib-compressed).

The v3 sharded read routes whole frames with bulk struct unpacks and
integer shard-key comparisons, where v2 pays a regex scan per dropped
line and a JSON parse per kept line -- the claim this benchmark pins:
**v3's sharded read must beat v2's on the same trace** (exit 1
otherwise), and both numbers land in the JSON artifact.

Standalone harness (same ``--quick`` / ``--json`` contract as the other
benchmarks)::

    PYTHONPATH=src python benchmarks/bench_trace_formats.py [EVENTS] [--jobs N]
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_sharded_pipeline import synthetic_trace  # noqa: E402

from repro.trace.serialize import dump_trace, open_trace  # noqa: E402


def _time_full_decode(path: str) -> float:
    reader = open_trace(path)
    started = time.perf_counter()
    count = 0
    for _ in reader.events():
        count += 1
    elapsed = time.perf_counter() - started
    reader.close()
    assert count > 0
    return elapsed


def _time_sharded_read(path: str, jobs: int) -> float:
    """Sum of all shard workers' streaming passes, single-process."""
    reader = open_trace(path)
    started = time.perf_counter()
    count = 0
    for shard in range(jobs):
        for _ in reader.memory_events(shard=shard, jobs=jobs):
            count += 1
    elapsed = time.perf_counter() - started
    reader.close()
    assert count > 0
    return elapsed


def bench_formats(events: int, jobs: int, tmp: str) -> dict:
    trace = synthetic_trace(events)
    results = {}
    for fmt, suffix in (("jsonl", ".jsonl"), ("columnar", ".trc")):
        path = os.path.join(tmp, f"bench{suffix}")
        started = time.perf_counter()
        dump_trace(trace, path, format=fmt)
        write_s = time.perf_counter() - started
        results[fmt] = {
            "bytes": os.path.getsize(path),
            "write_s": write_s,
            "full_decode_s": _time_full_decode(path),
            "sharded_read_s": _time_sharded_read(path, jobs),
        }
    return results


def main(argv=None) -> int:
    import argparse
    import json
    import tempfile

    parser = argparse.ArgumentParser(
        description="trace format (v2 JSONL vs v3 columnar) read benchmark"
    )
    parser.add_argument("events", nargs="?", type=int, default=200_000)
    parser.add_argument("--jobs", type=int, default=4,
                        help="shard count for the sharded-read pass")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 20k events regardless of the positional",
    )
    parser.add_argument("--json", metavar="OUT.json", default=None)
    args = parser.parse_args(argv)
    events = 20_000 if args.quick else args.events

    print(f"generating {events} memory events ...", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        results = bench_formats(events, args.jobs, tmp)

    print(f"\n{'format':>10} {'MB':>7} {'write_s':>8} {'decode_s':>9} "
          f"{'shard_s':>8}")
    for fmt, row in results.items():
        print(
            f"{fmt:>10} {row['bytes'] / 1e6:>7.2f} {row['write_s']:>8.3f} "
            f"{row['full_decode_s']:>9.3f} {row['sharded_read_s']:>8.3f}"
        )
    v2 = results["jsonl"]
    v3 = results["columnar"]
    shard_speedup = v2["sharded_read_s"] / v3["sharded_read_s"]
    decode_speedup = v2["full_decode_s"] / v3["full_decode_s"]
    size_ratio = v2["bytes"] / v3["bytes"]
    print(
        f"\nv3 vs v2: sharded read {shard_speedup:.2f}x, "
        f"full decode {decode_speedup:.2f}x, {size_ratio:.1f}x smaller"
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "benchmark": "trace_formats",
                    "events": events,
                    "jobs": args.jobs,
                    "formats": results,
                    "sharded_read_speedup": shard_speedup,
                    "full_decode_speedup": decode_speedup,
                    "size_ratio": size_ratio,
                },
                handle,
                indent=2,
            )
        print(f"json written to {args.json}")

    if shard_speedup <= 1.0:
        print(
            "FAIL: v3 sharded read did not beat v2 "
            f"({v3['sharded_read_s']:.3f}s vs {v2['sharded_read_s']:.3f}s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
