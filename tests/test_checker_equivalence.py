"""The central correctness property, property-tested.

For randomly generated task-parallel programs (consistent locking
discipline), the following must agree on the set of locations with a
violation in *some* schedule:

* the basic checker (unbounded history, complete reference);
* the optimized checker in thorough mode;
* the analytic structural oracle;
* the exhaustive interleaving explorer (on small programs).

The optimized checker in *paper* mode may under-report only in the
documented corner topologies (see test_opt_corner_cases); on these random
programs we assert it reports a subset of the thorough verdict and that
the verdict is identical across executors (schedule insensitivity).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checker import BasicAtomicityChecker, OptAtomicityChecker
from repro.fuzz.generate import FuzzConfig, ProgramGenerator
from repro.report import normalize_locations, normalize_report, normalized_locations
from repro.runtime import RandomOrderExecutor, SerialExecutor, run_program
from repro.session import CheckSession
from repro.trace.explore import (
    analytic_violation_locations,
    explore_violation_locations,
)

SMALL = FuzzConfig(
    tasks=3, accesses_per_task=3, locations=2, locks=1, consistent_locking=True,
    depth=2, lock_density=0.5, finish_probability=0.2, template_probability=0.0,
)
LOCKFREE = FuzzConfig(
    tasks=3, accesses_per_task=3, locations=1, locks=0,
    depth=2, lock_density=0.5, finish_probability=0.2, template_probability=0.0,
)
WIDE = FuzzConfig(
    tasks=4, accesses_per_task=2, locations=3, locks=2, consistent_locking=True,
    depth=2, lock_density=0.5, finish_probability=0.2, template_probability=0.0,
)


def trace_for(config, seed):
    return ProgramGenerator(config).generate_trace(seed=seed)


def checker_locations(trace, checker):
    # Order-independent canonical form exported by repro.report -- the
    # same normalizer the differential fuzzing oracle compares with.
    return normalized_locations(CheckSession(trace, checker=checker).check())


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_basic_equals_thorough_equals_analytic_lockfree(seed):
    trace = trace_for(LOCKFREE, seed)
    basic = checker_locations(trace, BasicAtomicityChecker())
    thorough = checker_locations(trace, OptAtomicityChecker(mode="thorough"))
    analytic = normalize_locations(analytic_violation_locations(trace))
    assert basic == thorough == analytic


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_basic_equals_thorough_equals_analytic_with_locks(seed):
    trace = trace_for(SMALL, seed)
    basic = checker_locations(trace, BasicAtomicityChecker())
    thorough = checker_locations(trace, OptAtomicityChecker(mode="thorough"))
    analytic = normalize_locations(analytic_violation_locations(trace))
    assert basic == thorough == analytic


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_wide_programs_agree(seed):
    trace = trace_for(WIDE, seed)
    basic = checker_locations(trace, BasicAtomicityChecker())
    thorough = checker_locations(trace, OptAtomicityChecker(mode="thorough"))
    assert basic == thorough
    paper = checker_locations(trace, OptAtomicityChecker(mode="paper"))
    assert set(paper) <= set(thorough)
    # Same trace, same checker: the full triple-level normal form must be
    # reproducible, not just the location set.
    thorough_report = CheckSession(
        trace, checker=OptAtomicityChecker(mode="thorough")
    ).check()
    again = CheckSession(
        trace, checker=OptAtomicityChecker(mode="thorough")
    ).check()
    assert normalize_report(thorough_report) == normalize_report(again)


@given(seed=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_explorer_agrees_on_small_programs(seed):
    """Exhaustive schedule enumeration confirms the structural verdicts."""
    trace = trace_for(SMALL, seed)
    if len(trace.memory_events()) > 8:  # keep enumeration tractable
        return
    from repro.trace.explore import InterleavingExplorer

    explorer = InterleavingExplorer(trace, max_schedules=4_000)
    explored = explorer.violation_locations()
    if explorer.truncated:
        return  # bounded exploration cannot serve as ground truth
    analytic = analytic_violation_locations(trace)
    assert normalize_locations(explored) == normalize_locations(analytic)


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_verdict_schedule_insensitive(seed):
    """One program, three executors: identical violation locations.

    The theorem holds for the *complete* configuration (thorough mode ==
    basic checker).  Paper mode's verdict can legitimately vary with the
    observation order in the documented corner cases (hypothesis found
    seed 155 doing exactly that), so for it we assert only that every
    schedule's verdict is a subset of the complete one.
    """
    generator = ProgramGenerator(SMALL)
    program = generator.generate_program(seed=seed)
    thorough_verdicts = []
    for executor in (
        SerialExecutor(),
        SerialExecutor(policy="help_first", order="lifo"),
        RandomOrderExecutor(seed=seed ^ 0xBEEF),
    ):
        thorough = OptAtomicityChecker(mode="thorough")
        paper = OptAtomicityChecker(mode="paper")
        result = run_program(
            program, executor=executor, observers=[thorough, paper]
        )
        thorough_verdicts.append(normalized_locations(thorough.report))
        assert set(normalized_locations(paper.report)) <= set(
            normalized_locations(thorough.report)
        )
    assert thorough_verdicts[0] == thorough_verdicts[1] == thorough_verdicts[2]


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_paper_mode_subset_of_thorough(seed):
    trace = trace_for(SMALL, seed)
    paper = checker_locations(trace, OptAtomicityChecker(mode="paper"))
    thorough = checker_locations(trace, OptAtomicityChecker(mode="thorough"))
    assert set(paper) <= set(thorough)


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_optimized_metadata_bounded(seed):
    """Paper-mode global metadata never exceeds 12 entries per location."""
    trace = trace_for(WIDE, seed)
    checker = OptAtomicityChecker(mode="paper")
    CheckSession(trace, checker=checker).check()
    assert checker.max_entries_per_location() <= 12
