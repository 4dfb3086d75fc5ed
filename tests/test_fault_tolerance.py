"""Fault tolerance of the sharded driver: supervision, checkpoints, resume.

The failure matrix of ISSUE 4: a worker SIGKILLed mid-shard under each
``WorkerPolicy.on_failure`` policy, timeout expiry, resume-after-interrupt
reproducing the fresh-run report exactly (including across the whole
36-program suite), spawn-mode equivalence, and the driver bugfixes
(affinity-aware ``default_jobs``, reader cleanup, picklable payloads).

Faults are injected through the ``REPRO_FAULT_KILL`` /
``REPRO_FAULT_SLEEP`` environment hooks so they reach worker processes
under every start method.
"""

import json
import os

import pytest

from repro.checker import OptAtomicityChecker
from repro.checker.sharded import default_jobs
from repro.checker.supervisor import (
    FAULT_KILL_ENV,
    FAULT_SLEEP_ENV,
    CheckpointStore,
    WorkerPolicy,
    maybe_inject_fault,
)
from repro.errors import CheckerError
from repro.obs import MetricsRecorder, comparable_counters
from repro.report import ViolationReport
from repro.runtime import TaskProgram, run_program
from repro.session import CheckSession
from repro.suite import all_cases
from repro.trace.serialize import dump_trace_jsonl


def recorded_trace():
    """A small multi-location program whose events reach every shard."""

    def body(ctx):
        def rmw(inner, loc):
            value = inner.read(loc)
            inner.write(loc, value + 1)

        for loc in ("X", "Y", "Z", ("grid", 7)):
            ctx.spawn(rmw, loc)
            ctx.spawn(rmw, loc)
        ctx.sync()

    memory = {loc: 0 for loc in ("X", "Y", "Z", ("grid", 7))}
    return run_program(
        TaskProgram(body, initial_memory=memory), record_trace=True
    ).trace


@pytest.fixture
def trace_file(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    dump_trace_jsonl(recorded_trace(), path)
    return path


@pytest.fixture
def baseline(trace_file):
    report = CheckSession(trace_file, jobs=1).check()
    assert report, "fixture program must produce violations"
    return report


def keys(report):
    return {v.key for v in report}


#: JSON nested past any recursion limit the interpreter allows.
DEEP = "[" * 100_000 + "]" * 100_000


class TestFaultHooks:
    def test_noop_without_env(self):
        maybe_inject_fault(0, 0)  # must not raise or kill

    def test_sleep_hook_targets_one_attempt(self, monkeypatch):
        import time

        monkeypatch.setenv(FAULT_SLEEP_ENV, "3@1:0.05")
        started = time.monotonic()
        maybe_inject_fault(3, 0)  # wrong attempt: no sleep
        maybe_inject_fault(2, 1)  # wrong shard: no sleep
        assert time.monotonic() - started < 0.04
        maybe_inject_fault(3, 1)
        assert time.monotonic() - started >= 0.05


class TestWorkerPolicy:
    def test_rejects_unknown_policy(self):
        with pytest.raises(CheckerError):
            WorkerPolicy(on_failure="panic")

    def test_rejects_negative_retries(self):
        with pytest.raises(CheckerError):
            WorkerPolicy(max_retries=-1)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(CheckerError):
            WorkerPolicy(timeout_s=0)

    def test_policy_is_the_only_fault_keyword(self):
        import inspect

        from repro.checker.sharded import run_check

        check = inspect.signature(CheckSession.check).parameters
        driver = inspect.signature(run_check).parameters
        named = [
            name for name, param in check.items()
            if name != "self" and param.kind is not param.VAR_KEYWORD
        ]
        # checker, checkpoint_dir, resume, policy, cache_dir, streaming,
        # window: jobs and the engine belong to the session.
        assert len(named) == 7
        for name in (
            "on_shard_failure", "max_retries", "retry_backoff",
            "shard_timeout", "start_method",
        ):
            assert name not in check and name not in driver
        assert "policy" in check and "policy" in driver


class TestFailureMatrix:
    """Worker SIGKILLed mid-shard under each policy, plus timeouts."""

    def test_kill_then_retry_matches_unfaulted_run(
        self, trace_file, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        report = CheckSession(trace_file, jobs=2).check(
            policy=WorkerPolicy(on_failure="retry")
        )
        assert keys(report) == keys(baseline)
        assert report.raw_count == baseline.raw_count

    def test_kill_then_inline_fallback_completes(
        self, trace_file, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULT_KILL_ENV, "1@0")
        report = CheckSession(trace_file, jobs=2).check(
            policy=WorkerPolicy(on_failure="inline", max_retries=0)
        )
        assert keys(report) == keys(baseline)

    def test_kill_with_raise_policy_aborts(self, trace_file, monkeypatch):
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        with pytest.raises(CheckerError, match="shard 0 failed"):
            CheckSession(trace_file, jobs=2).check(
                policy=WorkerPolicy(on_failure="raise")
            )

    def test_persistent_crash_exhausts_retries(self, trace_file, monkeypatch):
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        with pytest.raises(CheckerError, match="failed after 1 attempt"):
            CheckSession(trace_file, jobs=2).check(
                policy=WorkerPolicy(on_failure="retry", max_retries=0)
            )

    def test_crash_on_every_attempt_exhausts_retries(
        self, trace_file, monkeypatch
    ):
        # "0@*" kills every attempt of shard 0, so all retries fail too.
        monkeypatch.setenv(FAULT_KILL_ENV, "0@*")
        with pytest.raises(CheckerError, match="failed after 3 attempt"):
            CheckSession(trace_file, jobs=2).check(
                policy=WorkerPolicy(
                    on_failure="retry", max_retries=2, retry_backoff=0.01
                ),
            )

    def test_inline_fallback_survives_persistent_crash(
        self, trace_file, baseline, monkeypatch
    ):
        # Even a shard whose worker *always* dies completes inline (the
        # hooks are suspended for the in-driver call).
        monkeypatch.setenv(FAULT_KILL_ENV, "0@*")
        report = CheckSession(trace_file, jobs=2).check(
            policy=WorkerPolicy(
                on_failure="inline", max_retries=1, retry_backoff=0.01
            ),
        )
        assert keys(report) == keys(baseline)
        assert os.environ[FAULT_KILL_ENV] == "0@*"  # restored after inline

    def test_timeout_expiry_retries_and_completes(
        self, trace_file, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULT_SLEEP_ENV, "0@0:30")
        report = CheckSession(trace_file, jobs=2).check(
            policy=WorkerPolicy(
                on_failure="retry", timeout_s=0.5, retry_backoff=0.01
            ),
        )
        assert keys(report) == keys(baseline)

    def test_in_memory_source_retries_too(self, baseline, monkeypatch):
        trace = recorded_trace()
        fresh = CheckSession(trace, jobs=2).check()
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        report = CheckSession(trace, jobs=2).check(
            policy=WorkerPolicy(on_failure="retry")
        )
        assert keys(report) == keys(fresh) == keys(baseline)

    def test_failure_metrics_are_counted(
        self, trace_file, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        recorder = MetricsRecorder()
        report = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            policy=WorkerPolicy(on_failure="retry")
        )
        counters = recorder.snapshot().counters
        assert keys(report) == keys(baseline)
        assert counters["sharded.shard_failures"] == 1
        assert counters["sharded.retries"] == 1
        assert "sharded.inline_fallbacks" not in counters

    def test_inline_fallback_metric(self, trace_file, monkeypatch):
        monkeypatch.setenv(FAULT_KILL_ENV, "1@0")
        recorder = MetricsRecorder()
        CheckSession(trace_file, jobs=2, recorder=recorder).check(
            policy=WorkerPolicy(on_failure="inline", max_retries=0)
        )
        assert recorder.snapshot().counters["sharded.inline_fallbacks"] == 1


class TestCheckpointResume:
    def test_fresh_run_writes_manifest_and_shards(self, trace_file, tmp_path):
        ck = str(tmp_path / "ck")
        CheckSession(trace_file, jobs=2).check(checkpoint_dir=ck)
        names = sorted(os.listdir(ck))
        assert "run.json" in names
        assert [n for n in names if n.startswith("shard-")] == [
            "shard-00000.json",
            "shard-00001.json",
        ]

    def test_resume_after_partial_run_matches_fresh(
        self, trace_file, baseline, tmp_path
    ):
        ck = str(tmp_path / "ck")
        fresh = CheckSession(trace_file, jobs=2).check(checkpoint_dir=ck)
        # Simulate an interrupt: one shard's checkpoint never landed.
        os.unlink(os.path.join(ck, "shard-00001.json"))
        resumed = CheckSession(trace_file, jobs=2).check(
            checkpoint_dir=ck, resume=True
        )
        assert resumed.describe() == fresh.describe()  # byte-identical
        assert keys(resumed) == keys(baseline)
        assert resumed.raw_count == fresh.raw_count

    def test_resume_from_complete_run_skips_all_workers(
        self, trace_file, baseline, tmp_path
    ):
        ck = str(tmp_path / "ck")
        CheckSession(trace_file, jobs=2).check(checkpoint_dir=ck)
        recorder = MetricsRecorder()
        resumed = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            checkpoint_dir=ck, resume=True
        )
        counters = recorder.snapshot().counters
        assert keys(resumed) == keys(baseline)
        assert counters["sharded.resumed_shards"] == 2
        assert counters["sharded.workers"] == 0

    def test_resume_with_mismatched_jobs_is_refused(
        self, trace_file, tmp_path
    ):
        ck = str(tmp_path / "ck")
        CheckSession(trace_file, jobs=2).check(checkpoint_dir=ck)
        with pytest.raises(CheckerError, match="incompatible"):
            CheckSession(trace_file, jobs=4).check(
                checkpoint_dir=ck, resume=True
            )

    def test_fresh_run_clears_stale_shards(self, trace_file, tmp_path):
        ck = str(tmp_path / "ck")
        CheckSession(trace_file, jobs=4).check(checkpoint_dir=ck)
        # Same directory, new configuration, no resume: stale shard
        # files from the jobs=4 run must not leak into a jobs=2 merge.
        CheckSession(trace_file, jobs=2).check(checkpoint_dir=ck)
        shards = [n for n in os.listdir(ck) if n.startswith("shard-")]
        assert sorted(shards) == ["shard-00000.json", "shard-00001.json"]

    def test_damaged_checkpoint_is_recomputed(
        self, trace_file, baseline, tmp_path
    ):
        ck = str(tmp_path / "ck")
        CheckSession(trace_file, jobs=2).check(checkpoint_dir=ck)
        torn = os.path.join(ck, "shard-00000.json")
        with open(torn, "w", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-checkpoint/1", "shard"')
        resumed = CheckSession(trace_file, jobs=2).check(
            checkpoint_dir=ck, resume=True
        )
        assert keys(resumed) == keys(baseline)

    def test_deeply_nested_shard_file_is_recomputed(self, trace_file, tmp_path):
        """A shard file nested past the recursion limit ended the resume
        in a ``RecursionError`` traceback; that shard is recomputed."""
        ck = str(tmp_path / "ck")
        fresh = CheckSession(trace_file, jobs=2).check(checkpoint_dir=ck)
        shard = os.path.join(ck, "shard-00000.json")
        with open(shard, "w", encoding="utf-8") as handle:
            handle.write(DEEP)
        recorder = MetricsRecorder()
        resumed = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            checkpoint_dir=ck, resume=True
        )
        assert resumed.describe() == fresh.describe()
        counters = recorder.snapshot().counters
        assert counters["sharded.resumed_shards"] == 1
        assert counters["sharded.workers"] == 1

    def test_deeply_nested_manifest_starts_a_fresh_run(self, trace_file, tmp_path):
        """A manifest nested past the recursion limit reads as no manifest:
        the resume recomputes every shard and rewrites it."""
        ck = str(tmp_path / "ck")
        fresh = CheckSession(trace_file, jobs=2).check(checkpoint_dir=ck)
        manifest = os.path.join(ck, "run.json")
        with open(manifest, "w", encoding="utf-8") as handle:
            handle.write(DEEP)
        recorder = MetricsRecorder()
        resumed = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            checkpoint_dir=ck, resume=True
        )
        assert resumed.describe() == fresh.describe()
        counters = recorder.snapshot().counters
        assert counters.get("sharded.resumed_shards", 0) == 0
        assert counters["sharded.workers"] == 2
        with open(manifest, "r", encoding="utf-8") as handle:
            assert json.load(handle)["jobs"] == 2

    def test_jobs1_checkpoints_as_single_shard(
        self, trace_file, baseline, tmp_path
    ):
        ck = str(tmp_path / "ck")
        first = CheckSession(trace_file, jobs=1).check(checkpoint_dir=ck)
        assert os.path.exists(os.path.join(ck, "shard-00000.json"))
        resumed = CheckSession(trace_file, jobs=1).check(
            checkpoint_dir=ck, resume=True
        )
        assert first.describe() == resumed.describe() == baseline.describe()

    def test_kill_plus_checkpoint_then_resume(
        self, trace_file, baseline, tmp_path, monkeypatch
    ):
        # Interrupted run: shard 0's worker dies on *every* attempt,
        # aborting the run -- but shard 1 finishes during the retries
        # and its checkpoint survives.
        ck = str(tmp_path / "ck")
        monkeypatch.setenv(FAULT_KILL_ENV, "0@*")
        with pytest.raises(CheckerError):
            CheckSession(trace_file, jobs=2).check(
                checkpoint_dir=ck,
                policy=WorkerPolicy(max_retries=2, retry_backoff=0.2),
            )
        assert os.path.exists(os.path.join(ck, "shard-00001.json"))
        monkeypatch.delenv(FAULT_KILL_ENV)
        resumed = CheckSession(trace_file, jobs=2).check(
            checkpoint_dir=ck, resume=True
        )
        assert keys(resumed) == keys(baseline)

    def test_resume_without_checkpoint_is_refused(self, trace_file, tmp_path):
        with pytest.raises(CheckerError, match="resume=True needs checkpoint_dir="):
            CheckSession(trace_file, jobs=1).check(resume=True)
        with pytest.raises(CheckerError, match="resume=True needs checkpoint_dir="):
            CheckSession(trace_file, jobs=2).check(resume=True)
        # A cache hit answers without the driver; the refusal still holds.
        cache = str(tmp_path / "rc")
        CheckSession(trace_file).check(cache_dir=cache)
        with pytest.raises(CheckerError, match="resume=True needs checkpoint_dir="):
            CheckSession(trace_file).check(cache_dir=cache, resume=True)

    def test_store_validates_schema(self, tmp_path):
        ck = str(tmp_path / "ck")
        CheckpointStore(ck, jobs=2, checker="optimized")
        manifest = os.path.join(ck, "run.json")
        with open(manifest, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["schema"] = "other/1"
        with open(manifest, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        with pytest.raises(CheckerError, match="incompatible"):
            CheckpointStore(ck, jobs=2, checker="optimized", resume=True)


class TestSuiteEquivalence:
    """Acceptance criteria over the whole 36-program suite."""

    def test_kill_retry_and_resume_match_fresh_runs(self, tmp_path):
        for index, case in enumerate(all_cases()):
            result = run_program(case.build(), record_trace=True)
            path = str(tmp_path / f"{case.name}.jsonl")
            dump_trace_jsonl(result.trace, path)
            base = CheckSession(path, jobs=1).check()

            os.environ[FAULT_KILL_ENV] = f"{index % 2}@0"
            try:
                faulted = CheckSession(path, jobs=2).check(
                    policy=WorkerPolicy(on_failure="retry", retry_backoff=0.01)
                )
            finally:
                del os.environ[FAULT_KILL_ENV]
            assert keys(faulted) == keys(base), case.name
            assert faulted.raw_count == base.raw_count, case.name

            ck = str(tmp_path / f"ck-{case.name}")
            fresh = CheckSession(path, jobs=2).check(checkpoint_dir=ck)
            os.unlink(os.path.join(ck, f"shard-{index % 2:05d}.json"))
            resumed = CheckSession(path, jobs=2).check(
                checkpoint_dir=ck, resume=True
            )
            assert resumed.describe() == fresh.describe(), case.name
            assert keys(resumed) == keys(base), case.name
            assert resumed.raw_count == base.raw_count, case.name


class TestLenientChecking:
    def corrupt(self, path):
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{garbage line\n")
            handle.write('{"type": "Martian"}\n')

    def test_strict_check_raises_on_garbage(self, trace_file):
        self.corrupt(trace_file)
        with pytest.raises(Exception):
            CheckSession(trace_file, jobs=1).check()

    def test_lenient_matches_clean_verdict(self, trace_file, baseline):
        self.corrupt(trace_file)
        for jobs in (1, 2):
            report = CheckSession(trace_file, jobs=jobs, strict=False).check()
            assert keys(report) == keys(baseline), jobs

    def test_lenient_skip_count_agrees_across_job_counts(
        self, trace_file, baseline
    ):
        self.corrupt(trace_file)
        totals = {}
        for jobs in (1, 4):
            recorder = MetricsRecorder()
            report = CheckSession(
                trace_file, jobs=jobs, strict=False, recorder=recorder
            ).check()
            assert keys(report) == keys(baseline)
            totals[jobs] = comparable_counters(
                recorder.snapshot().counters
            )
        assert totals[1]["trace.lines_skipped"] == 2
        assert totals[1] == totals[4]

    def test_metric_totals_agree_even_with_faults(
        self, trace_file, baseline, monkeypatch
    ):
        self.corrupt(trace_file)
        solo = MetricsRecorder()
        CheckSession(trace_file, jobs=1, strict=False, recorder=solo).check()
        monkeypatch.setenv(FAULT_KILL_ENV, "2@0")
        sharded = MetricsRecorder()
        report = CheckSession(
            trace_file, jobs=4, strict=False, recorder=sharded
        ).check(
            policy=WorkerPolicy(retry_backoff=0.01)
        )
        assert keys(report) == keys(baseline)
        assert comparable_counters(
            solo.snapshot().counters
        ) == comparable_counters(sharded.snapshot().counters)


class TestStartMethods:
    def test_spawn_produces_identical_report(self, trace_file, baseline):
        forked = CheckSession(trace_file, jobs=2).check()
        spawned = CheckSession(trace_file, jobs=2).check(
            policy=WorkerPolicy(start_method="spawn")
        )
        assert spawned.describe() == forked.describe()  # byte-identical
        assert keys(spawned) == keys(baseline)

    def test_unknown_start_method_rejected(self, trace_file):
        with pytest.raises(CheckerError, match="not available"):
            CheckSession(trace_file, jobs=2).check(
                policy=WorkerPolicy(start_method="teleport")
            )

    def test_env_override_is_honored(self, trace_file, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "teleport")
        with pytest.raises(CheckerError, match="not available"):
            CheckSession(trace_file, jobs=2).check()

    def test_unpicklable_payload_is_a_clear_error(self, trace_file):
        checker = OptAtomicityChecker()
        checker.unpicklable = lambda: None  # closures cannot be pickled
        with pytest.raises(CheckerError, match="picklable"):
            CheckSession(trace_file, jobs=2, checker=checker).check(
                policy=WorkerPolicy(start_method="spawn")
            )


class TestDriverBugfixes:
    def test_default_jobs_prefers_affinity(self, monkeypatch):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 3})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_jobs() == 3

    def test_default_jobs_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_jobs() == 5

    def test_owned_reader_closed_after_success(self, trace_file):
        # A session over a path opens the reader; each pass closes its
        # own handle.
        report = CheckSession(trace_file, jobs=1).check()
        assert isinstance(report, ViolationReport)
        # A second full check re-opens cleanly; nothing holds the file.
        assert keys(CheckSession(trace_file, jobs=2).check()) == keys(report)

    def test_owned_reader_closed_on_worker_failure(
        self, trace_file, monkeypatch
    ):
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        with pytest.raises(CheckerError):
            CheckSession(trace_file, jobs=2).check(
                policy=WorkerPolicy(on_failure="raise")
            )
        # The path is still checkable: no leaked handle, no stale state.
        monkeypatch.delenv(FAULT_KILL_ENV)
        assert CheckSession(trace_file, jobs=2).check()

    def test_caller_reader_left_open(self, trace_file):
        from repro.trace.serialize import open_trace

        reader = open_trace(trace_file)
        CheckSession(reader, jobs=2).check()
        assert not reader.closed  # caller-owned: caller closes
        reader.close()


class TestSessionWiring:
    def test_session_checkpoint_resume(self, trace_file, baseline, tmp_path):
        ck = str(tmp_path / "ck")
        fresh = CheckSession(trace_file, jobs=2).check(checkpoint_dir=ck)
        os.unlink(os.path.join(ck, "shard-00000.json"))
        resumed = CheckSession(trace_file, jobs=2).check(
            checkpoint_dir=ck, resume=True
        )
        assert fresh.describe() == resumed.describe()  # byte-identical
        assert keys(resumed) == keys(baseline)

    def test_session_jobs1_checkpoint_routes_through_driver(
        self, trace_file, baseline, tmp_path
    ):
        ck = str(tmp_path / "ck")
        report = CheckSession(trace_file, jobs=1).check(checkpoint_dir=ck)
        assert report.describe() == baseline.describe()
        assert os.path.exists(os.path.join(ck, "shard-00000.json"))

    def test_session_lenient_counts_lines(self, trace_file, baseline):
        with open(trace_file, "a", encoding="utf-8") as handle:
            handle.write("{junk\n")
        session = CheckSession(trace_file, strict=False)
        report = session.check()
        assert keys(report) == keys(baseline)
        assert session.lines_skipped == 1

    def test_session_fault_policy_forwarded(
        self, trace_file, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        report = CheckSession(trace_file, jobs=2).check(
            policy=WorkerPolicy(on_failure="retry")
        )
        assert keys(report) == keys(baseline)
