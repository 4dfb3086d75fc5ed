"""TRACEGEN -- the Section 4 trace generator, timed end to end.

Generates a random task-parallel program of the configured shape, runs it
under the optimized checker, and (small configs only) cross-checks the
verdict against the exhaustive interleaving explorer -- the "detects all
atomicity violations for a given input by examining one execution trace"
demonstration as a repeatable benchmark.
"""

import pytest

from repro.checker import OptAtomicityChecker
from repro.fuzz.generate import FuzzConfig, ProgramGenerator
from repro.runtime import run_program
from repro.session import CheckSession
from repro.trace.explore import explore_violation_locations

CONFIGS = {
    "small-lockfree": FuzzConfig(
        tasks=4, accesses_per_task=3, locations=2, depth=2, locks=0,
        lock_density=0.5, finish_probability=0.2, template_probability=0.0,
    ),
    "medium-locked": FuzzConfig(
        tasks=8, accesses_per_task=4, locations=3, locks=2, depth=2,
        lock_density=0.5, finish_probability=0.2, template_probability=0.0,
    ),
    "wide": FuzzConfig(
        tasks=16, accesses_per_task=3, locations=4, depth=3, locks=0,
        lock_density=0.5, finish_probability=0.2, template_probability=0.0,
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_generate_and_check(benchmark, name):
    generator = ProgramGenerator(CONFIGS[name])
    seeds = iter(range(10_000))

    def run():
        program = generator.generate_program(seed=next(seeds))
        checker = OptAtomicityChecker()
        run_program(program, observers=[checker])
        return checker.report

    benchmark(run)


def test_checker_matches_explorer_on_generated_traces(benchmark):
    """One-trace completeness against the schedule-enumeration oracle."""
    generator = ProgramGenerator(
        FuzzConfig(
            tasks=3, accesses_per_task=2, locations=1, locks=1, depth=2,
            lock_density=0.5, finish_probability=0.2, template_probability=0.0,
        )
    )

    def run():
        agreements = 0
        for seed in range(6):
            trace = generator.generate_trace(seed=seed)
            if len(trace.memory_events()) > 8:
                continue
            report = CheckSession(trace, checker=OptAtomicityChecker()).check()
            found = set(report.locations())
            truth = explore_violation_locations(trace, max_schedules=2_000)
            assert found == truth
            agreements += 1
        return agreements

    assert benchmark(run) > 0
