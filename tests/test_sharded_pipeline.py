"""The sharded offline pipeline is report-identical to in-process checking.

The load-bearing guarantee of :mod:`repro.checker.sharded`: partitioning a
recorded trace by location hash and replaying each shard in isolation must
produce *exactly* the violation set of an unsharded run -- across the full
36-program suite and a seeded fuzz corpus, for ``jobs=1`` and ``jobs=4``,
and regardless of whether the shards replay from memory or stream from a
JSONL trace file.
"""

import pytest

from repro.checker import OptAtomicityChecker, make_checker
from repro.errors import CheckerError, TraceError
from repro.fuzz.generate import FuzzConfig, ProgramGenerator
from repro.obs import MetricsRecorder
from repro.report import ViolationReport
from repro.runtime import TaskProgram, run_program
from repro.runtime.events import MemoryEvent, TaskEndEvent
from repro.session import CheckSession
from repro.suite import all_cases
from repro.trace.replay import events_to_replay
from repro.trace.serialize import dump_trace_jsonl, shard_for_location

CASES = all_cases()


def violation_keys(report):
    """The canonical identity of a report: every finding's dedup key."""
    return {v.key for v in report}


def record(program):
    """One instrumented run: live in-process report + the recorded trace."""
    result = run_program(
        program, observers=[OptAtomicityChecker()], record_trace=True
    )
    return result.report(), result.trace


class TestShardFunction:
    def test_deterministic_and_in_range(self):
        for jobs in (1, 2, 4, 7):
            for location in ("X", ("g", 3), 42, None, ("deep", ("t", 1))):
                shard = shard_for_location(location, jobs)
                assert 0 <= shard < jobs
                assert shard == shard_for_location(location, jobs)

    def test_partition_preserves_order_and_events(self):
        """Each shard replays its own accesses and every task end."""
        trace = ProgramGenerator(
            FuzzConfig(
                tasks=6, locations=4, depth=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0, seed=3,
            )
        ).generate_trace()
        checker = OptAtomicityChecker()
        streams = [list(events_to_replay(trace, checker, k, 4)) for k in range(4)]
        shards = [
            [e for e in stream if isinstance(e, MemoryEvent)] for stream in streams
        ]
        flattened = [e for shard in shards for e in shard]
        assert sorted(e.seq for e in flattened) == [
            e.seq for e in trace.memory_events()
        ]
        ends = [e.seq for e in trace.events if isinstance(e, TaskEndEvent)]
        assert ends
        for stream in streams:
            assert [e.seq for e in stream] == sorted(e.seq for e in stream)
            assert [e.seq for e in stream if isinstance(e, TaskEndEvent)] == ends
        for shard in shards:
            locations = {e.location for e in shard}
            for other in shards:
                if other is not shard:
                    assert locations.isdisjoint({e.location for e in other})


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
class TestSuiteEquivalence:
    """jobs=1 and jobs=4 reproduce the in-process verdict on all 36 programs."""

    def test_sharded_matches_in_process(self, case):
        program = case.build()
        live_report, trace = record(program)
        assert set(live_report.locations()) == set(case.expected)
        for jobs in (1, 4):
            sharded = CheckSession(
                trace,
                checker="optimized",
                jobs=jobs,
                annotations=program.annotations,
            ).check()
            assert violation_keys(sharded) == violation_keys(live_report), (
                f"{case.name}: jobs={jobs} diverged"
            )

    def test_sharded_report_is_in_cached_order(self, case, tmp_path):
        """``jobs>1`` merges into the canonical order of a cached result,
        so an uncached ``jobs=4`` check prints what a cached one prints."""
        _, trace = record(case.build())
        cached = CheckSession(trace).check(cache_dir=str(tmp_path / "rc"))
        sharded = CheckSession(trace, jobs=4).check()
        assert sharded.describe() == cached.describe(), case.name


FUZZ_CONFIGS = [
    FuzzConfig(
        tasks=6,
        accesses_per_task=5,
        locations=3,
        depth=2,
        locks=0,
        lock_density=0.5,
        finish_probability=0.2,
        template_probability=0.0,
        seed=seed,
    )
    for seed in range(4)
] + [
    FuzzConfig(
        tasks=8,
        accesses_per_task=6,
        locations=5,
        locks=2,
        depth=3,
        lock_density=0.5,
        finish_probability=0.2,
        template_probability=0.0,
        seed=seed,
    )
    for seed in (11, 12)
]


@pytest.mark.parametrize(
    "config", FUZZ_CONFIGS, ids=lambda c: f"seed{c.seed}-locks{c.locks}"
)
class TestFuzzEquivalence:
    """Seeded generator corpus: same verdict sharded and unsharded."""

    def test_in_memory_sharding(self, config):
        program = ProgramGenerator(config).generate_program()
        live_report, trace = record(program)
        for jobs in (1, 4):
            sharded = CheckSession(trace, checker="optimized", jobs=jobs).check()
            assert violation_keys(sharded) == violation_keys(live_report)

    def test_file_streamed_sharding(self, config, tmp_path):
        program = ProgramGenerator(config).generate_program()
        live_report, trace = record(program)
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(trace, path)
        for jobs in (1, 4):
            sharded = CheckSession(path, checker="optimized", jobs=jobs).check()
            assert violation_keys(sharded) == violation_keys(live_report)


class TestMultivarGroups:
    """Grouped locations share a metadata cell and must share a shard."""

    def multivar_program(self):
        from repro.checker.annotations import AtomicAnnotations

        def reader(ctx):
            ctx.read("checking")
            ctx.read("savings")

        def mover(ctx):
            ctx.write("checking", 0)
            ctx.write("savings", 100)

        def main(ctx):
            ctx.spawn(reader)
            ctx.spawn(mover)
            ctx.sync()

        annotations = AtomicAnnotations().annotate_group(
            "account", ["checking", "savings"]
        )
        return TaskProgram(
            main,
            initial_memory={"checking": 100, "savings": 0},
            annotations=annotations,
        )

    def test_group_members_stay_together(self):
        program = self.multivar_program()
        live_report, trace = record(program)
        assert live_report  # the cross-variable violation exists
        for jobs in (2, 3, 4, 5):
            sharded = CheckSession(
                trace, jobs=jobs, annotations=program.annotations
            ).check()
            assert violation_keys(sharded) == violation_keys(live_report), jobs

    def test_grouped_partition_lands_in_one_shard(self):
        program = self.multivar_program()
        _, trace = record(program)
        checker = OptAtomicityChecker()
        populated = [
            k
            for k in range(4)
            if any(
                isinstance(e, MemoryEvent)
                for e in events_to_replay(
                    trace, checker, k, 4, program.annotations
                )
            )
        ]
        assert len(populated) == 1  # both members hash via the group key


class TestDriverContract:
    def test_shard_without_accesses_starts_no_worker(self):
        """Task ends reach every shard, but a shard holding nothing else
        starts no worker."""

        def body(ctx):
            def rmw(inner):
                inner.write("X", inner.read("X") + 1)

            ctx.write("X", 0)
            ctx.spawn(rmw)
            ctx.spawn(rmw)
            ctx.sync()

        _, trace = record(TaskProgram(body))
        recorder = MetricsRecorder()
        report = CheckSession(trace, jobs=4, recorder=recorder).check()
        assert report.locations() == ["X"]
        assert recorder.snapshot().counters["sharded.workers"] == 1

    def test_trace_order_sensitive_checker_refused(self):
        trace = ProgramGenerator(
            FuzzConfig(
                tasks=4, depth=2, locations=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0, seed=5,
            )
        ).generate_trace()
        with pytest.raises(CheckerError):
            CheckSession(trace, checker="velodrome", jobs=2).check()

    def test_velodrome_allowed_in_process(self):
        trace = ProgramGenerator(
            FuzzConfig(
                tasks=4, depth=2, locations=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0, seed=5,
            )
        ).generate_trace()
        report = CheckSession(trace, checker="velodrome", jobs=1).check()
        assert isinstance(report, ViolationReport)

    def test_checker_instance_and_class_specs(self):
        _, trace = record(
            ProgramGenerator(
                FuzzConfig(
                    tasks=5, depth=2, locations=2, locks=0, lock_density=0.5,
                    finish_probability=0.2, template_probability=0.0, seed=7,
                )
            ).generate_program()
        )
        by_name = CheckSession(trace, checker="optimized", jobs=2).check()
        by_class = CheckSession(trace, checker=OptAtomicityChecker, jobs=2).check()
        by_instance = CheckSession(
            trace, checker=OptAtomicityChecker(mode="thorough"), jobs=2
        ).check()
        assert violation_keys(by_class) == violation_keys(by_name)
        assert violation_keys(by_instance) >= violation_keys(by_name)

    def test_bad_jobs_rejected(self):
        trace = ProgramGenerator(
            FuzzConfig(
                tasks=4, depth=2, locations=2, locks=0, lock_density=0.5,
                finish_probability=0.2, template_probability=0.0, seed=1,
            )
        ).generate_trace()
        with pytest.raises(TraceError):
            CheckSession(trace, jobs=0).check()

    def test_bad_source_rejected(self):
        with pytest.raises(TraceError):
            CheckSession(12345, jobs=1).check()

    def test_merge_classmethod_dedupes_and_sums_raw_count(self):
        _, trace = record(
            ProgramGenerator(
                FuzzConfig(
                    tasks=5, depth=2, locations=2, locks=0, lock_density=0.5,
                    finish_probability=0.2, template_probability=0.0, seed=9,
                )
            ).generate_program()
        )
        report = CheckSession(trace, jobs=1).check()
        merged = ViolationReport.merge([report, report])
        assert violation_keys(merged) == violation_keys(report)
        assert merged.raw_count == 2 * report.raw_count

    def test_default_jobs_is_cpu_count(self):
        from repro.checker.sharded import default_jobs

        assert default_jobs() >= 1
