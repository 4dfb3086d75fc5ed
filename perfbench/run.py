"""The repository's benchmark: what checking costs a user, on four workloads.

One run measures one workload of ``scenarios.py``, built from a seed::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 25 --trace 0

Set-up records each program's trace, writes it as v2 JSONL and v3
columnar, checks it in memory (the reference verdict, which must match
the workload's known answer) and primes the result cache.  Then
``endtoend.py`` times every path a user runs for ``--seconds``
(``layers.py`` with ``--trace 1``) on the files of that set-up.  Set-up
runs four more times between the timed rounds, spread over the
measuring time (not with ``--quick`` or ``--trace 1``); ``setup_s`` is
the median of the five.  Every
timed operation's verdict is compared with the reference; a mismatch or
an exception counts as failed and makes the run exit 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Other modes::

    python3 perfbench/run.py --workload dnc --seed 1 --quick    # smoke run
    python3 perfbench/run.py --sweep --seeds 10 --sets 2 --out new.json
    python3 perfbench/run.py --compare perfbench/results/baseline.json new.json

Scratch files live under ``.bench_work/`` at the repository root and are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SCHEMA = "repro-bench/1"

SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
    raise SystemExit(f"run.py: the repro sources it measures are not under {SRC}")
sys.path[:0] = [SRC, HERE]

import endtoend  # noqa: E402  (these need the path set above)
import harness  # noqa: E402
import layers  # noqa: E402
import scenarios  # noqa: E402

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             quick: bool) -> dict:
    """One benchmark run: the result object plus ``rounds`` and ``errors``."""
    declared = load_spec()["per_layer" if trace else "end_to_end"]
    gate = harness.Gate()
    scenario = scenarios.build(workload, seed, quick)
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    throughput: Dict[str, float] = {}
    reps = 1 if quick or trace else SETUP_REPS
    setups: List[float] = []

    def set_up() -> List[harness.Item]:
        directory = os.path.join(work, f"setup-{len(setups)}")
        took, items = harness.seconds_of(
            lambda: harness.prepare(scenario, directory, gate)
        )
        setups.append(took)
        return items

    def set_up_again(share: float) -> None:
        """Spread the repetitions over the measuring time, so that one
        burst of host load cannot slow all of them."""
        if len(setups) < reps and share >= len(setups) / reps:
            set_up()

    try:
        items = set_up()  # what the run measures
        if trace:
            metrics = layers.measure(items, seconds, work, gate)
            rounds = metrics.pop("bench.passes")
        else:
            metrics, throughput, rounds = endtoend.measure(
                items, scenario.expected, seconds,
                os.path.join(work, "scratch.trc"), gate, set_up_again,
            )
            while len(setups) < reps:
                set_up()
            metrics["setup_s"] = statistics.median(setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(WORK_ROOT)
    missing = sorted({metric["name"] for metric in declared} - set(metrics))
    if missing:
        raise SystemExit(f"run.py: no value measured for {missing}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
        "events_per_s": throughput,
        "rounds": rounds,
        "errors": gate.errors,
    }


def print_result(workload: str, seed: int, result: dict) -> None:
    print(f"workload {workload}, seed {seed}: {result['rounds']} rounds, "
          f"{result['attempted']} checked operations, {result['failed']} failed")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in result["events_per_s"].items():
        print(f"  ({name} checks {value:,.0f} events/s)")
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)


# -- sweeps and comparisons ----------------------------------------------------


def summarize(runs: List[dict]) -> Dict[str, Dict[str, dict]]:
    """Per workload x metric: median, quartiles, run count, relative spread."""
    grouped: Dict[Tuple[str, str], List[float]] = {}
    units: Dict[str, str] = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            grouped.setdefault((run["workload"], name), []).append(metric["value"])
            units[name] = metric["unit"]
    out: Dict[str, Dict[str, dict]] = {}
    for (workload, name), values in grouped.items():
        if len(values) > 1:
            p25, median, p75 = statistics.quantiles(values, n=4)
        else:
            p25 = median = p75 = values[0]
        out.setdefault(workload, {})[name] = {
            "median": median, "p25": p25, "p75": p75, "n": len(values),
            "unit": units[name],
            "spread": (p75 - p25) / median if median else 0.0,
        }
    return out


def sweep(args) -> int:
    """Every workload for several seeds, each run in its own process."""
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    broken = 0
    for set_index in range(args.sets):
        runs = []
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in range(1, args.seeds + 1):
                done = subprocess.run(
                    [sys.executable, os.path.abspath(__file__),
                     "--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(args.trace)],
                    capture_output=True, text=True, cwd=ROOT, check=False,
                )
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or not lines:
                    print(f"set {set_index} {workload} seed {seed}: exit "
                          f"{done.returncode}\n{done.stdout[-2000:]}"
                          f"{done.stderr[-2000:]}", file=sys.stderr)
                    broken += 1
                    continue
                run = json.loads(lines[-1])
                run.update(workload=workload, seed=seed)
                runs.append(run)
                print(f"set {set_index} {workload} seed {seed}: ok", flush=True)
        summary = summarize(runs)
        sets.append({"runs": runs, "summary": summary})
        for workload, metrics in summary.items():
            for name, stats in metrics.items():
                bound = bounds.get(name)
                steady = ""
                if bound is not None and name != "setup_s":
                    steady = "steady" if stats["spread"] < bound / 3 else "NOISY"
                print(f"  {workload:<8} {name:<34} median {stats['median']:>12.6g} "
                      f"spread {stats['spread']:6.1%} {steady}")
    if args.out:
        document = {
            "schema": SCHEMA,
            "seconds": seconds,
            "trace": args.trace,
            "cpus": os.cpu_count(),
            "python": sys.version.split()[0],
            "sets": sets,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 1 if broken else 0


def judge(better: str, bound: float, base: dict, new: dict,
          base_runs: List[float], new_runs: List[float]) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one workload x metric."""
    if better == "lower":
        change = (new["median"] - base["median"]) / base["median"]
        all_better = max(new_runs) < min(base_runs)
    else:
        change = (base["median"] - new["median"]) / base["median"]
        all_better = min(new_runs) > max(base_runs)
    if all_better:
        return "ok"
    if max(base["spread"], new["spread"]) > bound:
        return "unresolved"
    return "worse" if change > bound else "ok"


def compare(base_path: str, new_path: Optional[str]) -> int:
    """One row per workload x end-to-end metric; exit 1 if any is worse.

    With one file, its first set of runs is the base and its last set the
    new side: the reproducibility check of a committed baseline.
    """
    spec = load_spec()
    with open(base_path, encoding="utf-8") as handle:
        base_sets = json.load(handle)["sets"]
    if new_path is None:
        base_runs, new_runs = base_sets[0]["runs"], base_sets[-1]["runs"]
    else:
        with open(new_path, encoding="utf-8") as handle:
            new_sets = json.load(handle)["sets"]
        base_runs = [run for s in base_sets for run in s["runs"]]
        new_runs = [run for s in new_sets for run in s["runs"]]
    base_sum, new_sum = summarize(base_runs), summarize(new_runs)

    def values(runs: List[dict], workload: str, name: str) -> List[float]:
        return [run["metrics"][name]["value"] for run in runs
                if run["workload"] == workload]

    worse = 0
    print(f"{'workload':<8} {'metric':<22} {'base p25 / median / p75':>35} "
          f"{'new p25 / median / p75':>35} {'change':>8}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = base_sum.get(workload, {}).get(name)
            new = new_sum.get(workload, {}).get(name)
            if base is None or new is None:
                print(f"{workload:<8} {name:<22} not measured on both sides")
                continue
            verdict = judge(metric["better"], metric["bound"], base, new,
                            values(base_runs, workload, name),
                            values(new_runs, workload, name))
            worse += verdict == "worse"
            change = (new["median"] - base["median"]) / base["median"]
            print(f"{workload:<8} {name:<22} "
                  f"{base['p25']:>11.4g} {base['median']:>11.4g} {base['p75']:>11.4g} "
                  f"{new['p25']:>11.4g} {new['median']:>11.4g} {new['p75']:>11.4g} "
                  f"{change:>+8.1%}  {verdict} (bound {metric['bound']:.0%})")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(scenarios.SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json, "
                             "0 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: small inputs and one set-up")
    parser.add_argument("--sweep", action="store_true",
                        help="run every workload for --seeds seeds, in subprocesses")
    parser.add_argument("--seeds", type=int, default=10,
                        help="with --sweep: seeds 1..N of every workload")
    parser.add_argument("--sets", type=int, default=1,
                        help="independent repetitions of the whole sweep")
    parser.add_argument("--out", default=None, help="where --sweep writes its runs")
    parser.add_argument("--compare", nargs="+", metavar="FILE",
                        help="BASE.json [NEW.json]: judge NEW against BASE")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) > 2:
            parser.error("--compare takes BASE.json and at most one NEW.json")
        return compare(args.compare[0], (args.compare[1:] or [None])[0])
    if args.sweep:
        return sweep(args)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.quick else load_spec()["run_seconds"]
    result = run_once(args.workload, args.seed, seconds, bool(args.trace), args.quick)
    print_result(args.workload, args.seed, result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
