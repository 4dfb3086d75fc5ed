"""BENCH-STREAMING -- peak checker memory: O(live tasks), not O(trace).

The workload is a *task churn* trace: rounds of short-lived tasks, each
performing a handful of lock-protected read-modify-writes on a small
fixed set of shared scalars and then ending.  Locations (and so the
global spaces, the paper's fixed twelve entries per location) stay
constant while the task count grows linearly with the trace.  One
unlocked racy pair in round 0 keeps the verdict non-trivial, and the
locks keep the report a few entries however long the trace runs.

Three scenarios over the same columnar trace file, peak-measured with
``tracemalloc`` (LCA memoization off everywhere, so the comparison is
metadata + buffering, not the shared cache):

* **materialized** -- ``load_trace`` then check: the full event list is
  resident (the pre-streaming front door);
* **offline** -- ``CheckSession(path)``: events stream from the file and
  the checker frees each task's local metadata at its step changes and
  at its end;
* **streaming** -- ``check(streaming=True)``: the same check behind the
  pass-through wrapper.

Claims enforced (exit 1 otherwise): every scenario reports the same
violations; the offline peak is within 5% of the streaming peak (the
plain check is as bounded as streaming) and below the materialized
peak; and both the offline and the streaming peaks stay under
``--budget-mb`` however many events the trace holds -- the
bounded-memory contract itself.

Standalone harness (same ``--quick`` / ``--json`` contract as the other
benchmarks)::

    PYTHONPATH=src python benchmarks/bench_streaming.py [EVENTS] [--budget-mb MB]
"""

import gc
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.dpst import ArrayDPST, NodeKind, ROOT_ID  # noqa: E402
from repro.report import READ, WRITE, normalize_report  # noqa: E402
from repro.runtime.events import MemoryEvent, TaskEndEvent  # noqa: E402
from repro.session import CheckSession  # noqa: E402
from repro.trace.serialize import dump_trace, load_trace  # noqa: E402
from repro.trace.trace import Trace  # noqa: E402

#: Shared scalars every task touches (global spaces stay this size).
LOCATIONS = 8
#: Locked RMW pairs per task; the *task count* scales with the trace.
ACCESSES_PER_TASK = 4


def churn_trace(memory_events: int) -> Trace:
    """Rounds of short-lived locked-RMW tasks over a fixed location set."""
    dpst = ArrayDPST()
    events = []
    seq = 0
    task = 0
    produced = 0
    while produced < memory_events:
        task += 1
        async_node = dpst.add_node(ROOT_ID, NodeKind.ASYNC)
        step = dpst.add_node(async_node, NodeKind.STEP)
        if task <= 2:
            # The round-0 bug: two parallel unlocked RMWs on one scalar.
            for access_type in (READ, WRITE):
                events.append(MemoryEvent(seq, task, step, "bug", access_type))
                seq += 1
                produced += 1
        for i in range(ACCESSES_PER_TASK):
            location = ("shared", (task + i) % LOCATIONS)
            # One versioned lock per critical section: the RMW pair shares
            # it, so no violation pair ever forms on these locations.
            lockset = (f"m{location[1]}@{task}",)
            for access_type in (READ, WRITE):
                events.append(
                    MemoryEvent(seq, task, step, location, access_type, lockset)
                )
                seq += 1
                produced += 1
        events.append(TaskEndEvent(seq, task))
        seq += 1
    return Trace(events, dpst=dpst)


def measured(label, fn):
    """Run *fn* under tracemalloc; return (report, peak_bytes, seconds)."""
    gc.collect()
    tracemalloc.start()
    started = time.perf_counter()
    report = fn()
    elapsed = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"  {label:>16}: peak {peak / 1e6:8.2f} MB in {elapsed:6.2f}s",
          flush=True)
    return report, peak, elapsed


def bench_streaming(events: int, tmp: str) -> dict:
    print(f"generating {events} memory events of task churn ...", flush=True)
    trace = churn_trace(events)
    tasks = sum(1 for e in trace.events if isinstance(e, TaskEndEvent))
    path = os.path.join(tmp, "churn.trc")
    dump_trace(trace, path, format="columnar")
    del trace
    print(f"  {tasks} tasks over {LOCATIONS + 1} locations, "
          f"{os.path.getsize(path) / 1e6:.2f} MB on disk", flush=True)

    results = {"events": events, "tasks": tasks, "scenarios": {}}
    reports = {}

    def run(label, fn):
        report, peak, elapsed = measured(label, fn)
        reports[label] = normalize_report(report)
        results["scenarios"][label] = {"peak_bytes": peak, "seconds": elapsed}

    run("materialized", lambda: CheckSession(
        load_trace(path), lca_cache=False).check())
    run("offline", lambda: CheckSession(path, lca_cache=False).check())
    run("streaming", lambda: CheckSession(
        path, lca_cache=False).check(streaming=True))

    canonical = reports["offline"]
    results["violations"] = len(canonical)
    results["reports_agree"] = all(
        normal == canonical for normal in reports.values()
    )
    return results


def main(argv=None) -> int:
    import argparse
    import json
    import tempfile

    parser = argparse.ArgumentParser(
        description="streaming checker peak-memory benchmark"
    )
    parser.add_argument("events", nargs="?", type=int, default=100_000)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 20k events regardless of the positional",
    )
    parser.add_argument(
        "--budget-mb", type=float, default=64.0,
        help="hard ceiling on the offline and streaming peaks "
        "(default: 64 MB)",
    )
    parser.add_argument("--json", metavar="OUT.json", default=None)
    args = parser.parse_args(argv)
    events = 20_000 if args.quick else args.events

    with tempfile.TemporaryDirectory() as tmp:
        results = bench_streaming(events, tmp)

    scenarios = results["scenarios"]
    streaming = scenarios["streaming"]["peak_bytes"]
    offline = scenarios["offline"]["peak_bytes"]
    materialized = scenarios["materialized"]["peak_bytes"]
    print(
        f"\noffline uses {offline / streaming:.2f}x the streaming peak, "
        f"{offline / materialized:.2f}x the materialized peak "
        f"({results['violations']} violation(s) found by every scenario)"
    )

    if args.json:
        results["benchmark"] = "streaming"
        results["budget_mb"] = args.budget_mb
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2)
        print(f"json written to {args.json}")

    failed = False
    if not results["reports_agree"] or not results["violations"]:
        print("FAIL: scenarios disagree (or found nothing)", file=sys.stderr)
        failed = True
    if not offline <= 1.05 * streaming:
        print(
            "FAIL: expected the offline peak within 5% of streaming, "
            f"got {offline} vs {streaming}",
            file=sys.stderr,
        )
        failed = True
    if not offline < materialized:
        print(
            "FAIL: expected offline < materialized peaks, "
            f"got {offline} / {materialized}",
            file=sys.stderr,
        )
        failed = True
    for label, peak in (("offline", offline), ("streaming", streaming)):
        if peak > args.budget_mb * 1e6:
            print(
                f"FAIL: {label} peak {peak / 1e6:.2f} MB exceeds "
                f"the {args.budget_mb:.0f} MB budget",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
