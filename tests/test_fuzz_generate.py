"""Tests of the fuzzing program generator (repro.fuzz.generate)."""

import pytest

from repro.fuzz import (
    FuzzConfig,
    ProgramGenerator,
    program_from_spec,
    spec_access_count,
    spec_locations,
)
from repro.fuzz.generate import spec_task_count
from repro.runtime.executor import SerialExecutor
from repro.runtime.program import run_program
from repro.static.lint import lint_spec

SEEDS = list(range(20))


def test_same_seed_same_spec():
    gen = ProgramGenerator(FuzzConfig())
    for seed in SEEDS:
        assert gen.generate_spec(seed) == gen.generate_spec(seed)


def test_two_generators_agree():
    a = ProgramGenerator(FuzzConfig())
    b = ProgramGenerator(FuzzConfig())
    for seed in SEEDS:
        assert a.generate_spec(seed) == b.generate_spec(seed)


def test_different_seeds_differ():
    gen = ProgramGenerator(FuzzConfig())
    specs = {gen.generate_spec(seed) for seed in range(50)}
    # Collisions are possible in principle; mass collision is a bug.
    assert len(specs) > 40


def test_specs_respect_config_bounds():
    config = FuzzConfig(tasks=5, depth=2, locations=2, locks=1)
    gen = ProgramGenerator(config)
    for seed in SEEDS:
        spec = gen.generate_spec(seed)
        assert spec[0] == "task"
        assert spec_access_count(spec) >= 1
        assert spec_task_count(spec) <= config.tasks
        for location in spec_locations(spec):
            assert location[0] == "g"
            assert 0 <= location[1] < config.locations


def test_locked_blocks_never_contain_spawns():
    gen = ProgramGenerator(FuzzConfig(lock_density=1.0, locks=2))

    def assert_no_spawn_under_lock(items, under_lock=False):
        for item in items:
            tag = item[0]
            if tag == "spawn":
                assert not under_lock
                assert_no_spawn_under_lock(item[1], under_lock)
            elif tag == "finish":
                assert_no_spawn_under_lock(item[1], under_lock)
            elif tag == "locked":
                assert_no_spawn_under_lock(item[2], under_lock=True)

    for seed in SEEDS:
        assert_no_spawn_under_lock(gen.generate_spec(seed)[1])


@pytest.mark.parametrize("seed", [0, 3, 7, 13])
def test_generated_programs_run_and_record(seed):
    program = ProgramGenerator(FuzzConfig()).generate_program(seed)
    result = run_program(
        program, executor=SerialExecutor(), record_trace=True
    )
    assert result.trace is not None
    assert len(result.trace.memory_events()) >= 1
    result.dpst.validate()


def test_generated_specs_are_exactly_lintable():
    gen = ProgramGenerator(FuzzConfig())
    for seed in SEEDS:
        report = lint_spec(gen.generate_spec(seed))
        # The spec language is the lint pass's native input: the static
        # skeleton must be exact.
        assert report.skeleton.is_exact, (seed, report.describe())


def test_templates_emit_fork_join_structure():
    config = FuzzConfig(template_probability=1.0, tasks=12, seed=0)
    gen = ProgramGenerator(config)
    tags = set()

    def visit(items):
        for item in items:
            tags.add(item[0])
            if item[0] in ("spawn", "finish"):
                visit(item[1])
            elif item[0] == "locked":
                visit(item[2])

    for seed in range(30):
        visit(gen.generate_spec(seed)[1])
    assert {"spawn", "finish", "sync", "access"} <= tags


def test_program_from_spec_is_self_contained():
    spec = ("task", (("access", ("g", 7), "write"), ("access", ("g", 7), "read")))
    program = program_from_spec(spec)
    assert program.initial_memory == {("g", 7): 0}
    result = run_program(program, executor=SerialExecutor(), record_trace=True)
    assert len(result.trace.memory_events()) == 2


def test_program_from_spec_rejects_non_task_root():
    with pytest.raises(ValueError):
        program_from_spec(("spawn", ()))
