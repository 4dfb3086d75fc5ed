"""BENCH-FUZZ -- throughput of the differential fuzzing oracle.

Measures programs-per-second and events-per-second of one oracle pass
(:func:`repro.fuzz.oracle.check_spec`) and of whole campaigns
(:func:`repro.fuzz.harness.run_campaign`), split by the expensive matrix
axes: the sharded leg (``jobs``) and the fresh-execution schedule legs.
The numbers size the CI ``fuzz-smoke`` budget -- 200 full-matrix runs
must stay well under 5 minutes -- and show where oracle time goes when
tuning campaign scale.

Two entry points:

* pytest-benchmark (small scale, runs with the rest of the bench suite)::

      PYTHONPATH=src python -m pytest benchmarks/bench_fuzz_oracle.py --benchmark-only

* standalone harness::

      PYTHONPATH=src python benchmarks/bench_fuzz_oracle.py [RUNS] [--quick] [--json OUT]
"""

import sys
import time

import pytest

from repro.fuzz.generate import FuzzConfig, ProgramGenerator
from repro.fuzz.harness import campaign_seeds, run_campaign
from repro.fuzz.oracle import check_spec
from repro.runtime.program import run_program

# -- pytest-benchmark hooks --------------------------------------------------

BENCH_SEED = 1


@pytest.fixture(scope="module")
def bench_spec():
    return ProgramGenerator(FuzzConfig()).generate_spec(BENCH_SEED)


def test_oracle_trace_legs_only(benchmark, bench_spec):
    """The same-trace matrix: engines, replay, cache, streaming; no re-execution."""
    outcome = benchmark(
        lambda: check_spec(bench_spec, seed=BENCH_SEED, jobs=1, schedules=False)
    )
    benchmark.extra_info["events"] = outcome.events
    assert outcome.ok


def test_oracle_full_matrix(benchmark, bench_spec):
    """Everything, including the sharded leg and both schedule legs."""
    outcome = benchmark(
        lambda: check_spec(bench_spec, seed=BENCH_SEED, jobs=2, schedules=True)
    )
    benchmark.extra_info["events"] = outcome.events
    assert outcome.ok


# -- standalone harness ------------------------------------------------------


def main(argv=None) -> int:
    import argparse
    import json
    import os

    parser = argparse.ArgumentParser(
        description="differential fuzzing oracle throughput benchmark"
    )
    parser.add_argument("runs", nargs="?", type=int, default=200)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: 50 runs regardless of the positional",
    )
    parser.add_argument("--json", metavar="OUT.json", default=None)
    args = parser.parse_args(argv)
    runs = 50 if args.quick else args.runs

    config = FuzzConfig()
    generator = ProgramGenerator(config)
    seeds = campaign_seeds(base_seed=BENCH_SEED, runs=runs)
    total_events = sum(
        len(
            run_program(generator.generate_program(seed), record_trace=True)
            .trace.memory_events()
        )
        for seed in seeds[: min(10, runs)]
    )
    print(
        f"fuzzing oracle benchmark: {runs} run(s), cpus={os.cpu_count()}, "
        f"~{total_events // min(10, runs)} events/program\n"
    )

    rows = []
    print(f"{'configuration':<34} {'seconds':>9} {'prog/s':>8} {'events/s':>10}")
    for label, jobs, schedules in (
        ("trace legs only (jobs=1)", 1, False),
        ("+ schedule legs (jobs=1)", 1, True),
        ("full matrix (jobs=4)", 4, True),
    ):
        started = time.perf_counter()
        events = 0
        disagreements = 0
        for seed in seeds:
            outcome = check_spec(
                generator.generate_spec(seed),
                seed=seed,
                jobs=jobs,
                schedules=schedules,
            )
            events += outcome.events
            disagreements += len(outcome.disagreements)
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "configuration": label,
                "jobs": jobs,
                "schedules": schedules,
                "seconds": elapsed,
                "programs_per_s": runs / elapsed,
                "events_per_s": events / elapsed,
                "disagreements": disagreements,
            }
        )
        print(
            f"{label:<34} {elapsed:>9.2f} {runs / elapsed:>8.1f} "
            f"{events / elapsed:>10.0f}"
        )
        if disagreements:
            print(f"  !! {disagreements} oracle disagreement(s) -- investigate")

    started = time.perf_counter()
    summary = run_campaign(config=config, runs=runs, base_seed=BENCH_SEED, jobs=4)
    campaign_s = time.perf_counter() - started
    print(
        f"\ncampaign wrapper overhead: {campaign_s:.2f}s for {runs} run(s) "
        f"({summary.events} events, ok={summary.ok})"
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "benchmark": "fuzz_oracle",
                    "runs": runs,
                    "cpus": os.cpu_count(),
                    "configurations": rows,
                    "campaign_seconds": campaign_s,
                    "campaign_ok": summary.ok,
                },
                handle,
                indent=2,
            )
        print(f"json written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
