"""The trace generator (paper Section 4): shape control and determinism.

The paper's claim for this tool: "Our prototype successfully detects all
atomicity violations for a given input by examining one execution trace."
`test_one_trace_suffices` is that claim, verified against the exhaustive
interleaving explorer.  The generator is
:class:`repro.fuzz.generate.ProgramGenerator`; every config here sets
``template_probability=0.0``, so programs are built from single accesses,
spawns, syncs and finish scopes only.
"""

import pytest

from repro.checker import OptAtomicityChecker
from repro.fuzz.generate import FuzzConfig, ProgramGenerator, program_from_spec
from repro.runtime import SerialExecutor, run_program
from repro.session import CheckSession
from repro.trace.explore import explore_violation_locations


class TestDeterminism:
    def test_same_seed_same_spec(self):
        generator = ProgramGenerator(
            FuzzConfig(
                tasks=4, depth=2, locations=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0, seed=11,
            )
        )
        assert generator.generate_spec() == generator.generate_spec()

    def test_different_seeds_differ_somewhere(self):
        generator = ProgramGenerator(
            FuzzConfig(
                tasks=4, depth=2, locations=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0,
            )
        )
        specs = {generator.generate_spec(seed) for seed in range(10)}
        assert len(specs) > 1

    def test_same_seed_same_trace(self):
        generator = ProgramGenerator(
            FuzzConfig(
                tasks=3, depth=2, locations=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0, seed=5,
            )
        )
        first = generator.generate_trace()
        second = generator.generate_trace()
        assert [e.seq for e in first.memory_events()] == [
            e.seq for e in second.memory_events()
        ]
        assert [e.location for e in first.memory_events()] == [
            e.location for e in second.memory_events()
        ]

    def test_same_seed_identical_traces_field_for_field(self):
        """Regression: all randomness flows through the injected rng.

        Two same-seed generate+record runs must produce *identical* event
        streams -- every field, locksets included -- not just matching
        locations.
        """
        events = []
        for _ in range(2):
            generator = ProgramGenerator(
                FuzzConfig(
                    tasks=5, depth=2, locations=2, locks=0, lock_density=0.5,
                    finish_probability=0.2, template_probability=0.0, seed=23,
                )
            )
            trace = generator.generate_trace()
            events.append(
                [
                    (e.seq, e.task, e.step, e.location, e.access_type, e.lockset)
                    for e in trace.memory_events()
                ]
            )
        assert events[0] == events[1]
        assert events[0], "a seeded run must record at least one event"

    def test_same_seed_identical_traces_under_random_executor(self):
        from repro.runtime import RandomOrderExecutor

        generator = ProgramGenerator(
            FuzzConfig(
                tasks=5, depth=2, locations=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0, seed=23,
            )
        )
        streams = []
        for _ in range(2):
            trace = generator.generate_trace(
                seed=23, executor=RandomOrderExecutor(seed=99)
            )
            streams.append(
                [
                    (e.seq, e.task, e.location, e.access_type, e.lockset)
                    for e in trace.memory_events()
                ]
            )
        assert streams[0] == streams[1]


class TestShapeControls:
    def test_task_budget_respected(self):
        config = FuzzConfig(
            tasks=5, depth=3, locations=2, locks=0, lock_density=0.5,
            finish_probability=0.2, template_probability=0.0,
        )
        generator = ProgramGenerator(config)
        for seed in range(10):
            trace = generator.generate_trace(seed=seed)
            # root task + at most `tasks` spawned tasks
            assert len(trace.task_ids()) <= config.tasks + 1

    def test_locations_drawn_from_pool(self):
        generator = ProgramGenerator(
            FuzzConfig(
                tasks=3, depth=2, locations=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0,
            )
        )
        for seed in range(5):
            trace = generator.generate_trace(seed=seed)
            for event in trace.memory_events():
                assert event.location in {("g", 0), ("g", 1)}

    def test_no_locks_when_disabled(self):
        generator = ProgramGenerator(
            FuzzConfig(
                tasks=3, depth=2, locations=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0,
            )
        )
        for seed in range(5):
            trace = generator.generate_trace(seed=seed)
            for event in trace.memory_events():
                assert event.lockset == ()

    def test_consistent_locking_discipline(self):
        """Each location's accesses always hold the same base lock (or none)."""
        generator = ProgramGenerator(
            FuzzConfig(
                tasks=4, depth=2, locations=2, locks=2, lock_density=1.0,
                finish_probability=0.2, template_probability=0.0,
                consistent_locking=True,
            )
        )
        for seed in range(8):
            trace = generator.generate_trace(seed=seed)
            lock_of = {}
            for event in trace.memory_events():
                bases = frozenset(name.split("#")[0] for name in event.lockset)
                previous = lock_of.setdefault(event.location, bases)
                assert previous == bases

    def test_write_probability_extremes(self):
        shape = dict(
            tasks=2, depth=2, locations=2, locks=0, lock_density=0.5,
            finish_probability=0.2, template_probability=0.0,
        )
        reads_only = ProgramGenerator(
            FuzzConfig(write_probability=0.0, **shape)
        ).generate_trace(seed=1)
        assert all(e.is_read for e in reads_only.memory_events())
        writes_only = ProgramGenerator(
            FuzzConfig(write_probability=1.0, **shape)
        ).generate_trace(seed=1)
        assert all(e.is_write for e in writes_only.memory_events())

    def test_invalid_root_spec_rejected(self):
        with pytest.raises(ValueError):
            program_from_spec(("access", ("g", 0), "read"))


class TestOneTraceSuffices:
    """The paper's completeness demonstration, against the explorer."""

    @pytest.mark.parametrize("seed", range(12))
    def test_one_trace_suffices(self, seed):
        generator = ProgramGenerator(
            FuzzConfig(
                tasks=3, accesses_per_task=2, depth=2, locations=1, locks=1,
                lock_density=0.5, finish_probability=0.2,
                template_probability=0.0, consistent_locking=True, seed=0,
            )
        )
        trace = generator.generate_trace(seed=seed)
        ground_truth = explore_violation_locations(trace, max_schedules=3_000)
        report = CheckSession(trace, checker=OptAtomicityChecker()).check()
        found = set(report.locations())
        assert found == ground_truth

    def test_program_rerunnable_under_other_executor(self):
        generator = ProgramGenerator(
            FuzzConfig(
                tasks=3, depth=2, locations=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0, seed=2,
            )
        )
        program = generator.generate_program(seed=7)
        first = run_program(program, observers=[OptAtomicityChecker()])
        second = run_program(
            program,
            executor=SerialExecutor(policy="help_first", order="lifo"),
            observers=[OptAtomicityChecker()],
        )
        assert set(first.report().locations()) == set(second.report().locations())
