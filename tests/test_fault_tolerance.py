"""Fault tolerance of the sharded driver: supervision and resume.

The failure matrix: a worker SIGKILLed mid-shard under each
``WorkerPolicy.on_failure`` policy, timeout expiry, resume-after-interrupt
through the result cache's shard entries reproducing the fresh-run
report exactly (including across the whole 36-program suite), spawn-mode
equivalence, and the driver bugfixes (affinity-aware ``default_jobs``,
reader cleanup, picklable payloads).

Faults are injected through the ``REPRO_FAULT_KILL`` /
``REPRO_FAULT_SLEEP`` environment hooks so they reach worker processes
under every start method.  A finished check leaves only its whole-result
entry, so a resume test interrupts a run for real
(:func:`interrupted_check`).
"""

import contextlib
import dataclasses
import glob
import json
import os
from unittest import mock

import pytest

from repro.cache import ResultCache
from repro.checker import OptAtomicityChecker
from repro.checker.sharded import default_jobs
from repro.checker.supervisor import (
    FAULT_KILL_ENV,
    FAULT_SLEEP_ENV,
    START_METHOD_ENV,
    WorkerPolicy,
    maybe_inject_fault,
)
from repro.errors import CheckerError, TraceError
from repro.obs import MetricsRecorder, comparable_counters
from repro.report import ViolationReport
from repro.runtime import TaskProgram, run_program
from repro.session import CheckSession
from repro.suite import all_cases
from repro.trace.serialize import dump_trace_jsonl
from tests.interrupt import interrupted


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


def resume_counters(recorder):
    """The counters a resume must share with a fresh run: all but the
    cache's and the driver's worker bookkeeping."""
    skip = {"sharded.workers", "sharded.heartbeats", "sharded.resumed_shards"}
    return {
        name: value
        for name, value in recorder.snapshot().counters.items()
        if name not in skip and not name.startswith("cache.")
    }


#: JSON nested past any recursion limit the interpreter allows.
DEEP = "[" * 100_000 + "]" * 100_000

#: A shard timeout that a worker of the tiny fixture trace meets under
#: every start method, while a stalled one misses it.
INTERRUPT_S = 3.0


def cache_entries(cache_dir):
    """The file names of every entry under *cache_dir*, sorted."""
    return sorted(
        os.path.basename(path)
        for path in glob.glob(os.path.join(cache_dir, "*", "*.json"))
    )


def shard_entry(cache_dir, jobs, shard):
    """The path of the one ``<key>.{jobs}-{shard}.json`` entry."""
    (path,) = glob.glob(os.path.join(cache_dir, "*", f"*.{jobs}-{shard}.json"))
    return path


@contextlib.contextmanager
def watched_stores():
    """The ``(key suffix, meta)`` of every result-cache store in the
    block, in order: ``"2-1"`` for shard 1 of 2, ``""`` for the whole
    entry."""
    stored = []
    store = ResultCache.store

    def watched(cache, key, report, meta=None):
        stored.append((key.partition(".")[2], meta))
        return store(cache, key, report, meta)

    with mock.patch.object(ResultCache, "store", watched):
        yield stored


def interrupted_check(source, cache_dir, jobs=2, stalled=None, **session):
    """A ``jobs``-way check of *source* into *cache_dir*, stopped for
    real before its whole-result entry lands (see :func:`interrupted`)."""
    with interrupted(jobs, stalled):
        CheckSession(source, jobs=jobs, **session).check(cache_dir=cache_dir)


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

    def test_raise_policy_is_refused(self):
        """``max_retries=0`` aborts on the first failure; there is no
        second way to ask for it."""
        with pytest.raises(CheckerError, match="retry, inline"):
            WorkerPolicy(on_failure="raise")

    def test_three_settings(self):
        assert [f.name for f in dataclasses.fields(WorkerPolicy)] == [
            "on_failure", "max_retries", "timeout_s",
        ]
        for removed in ("retry_backoff", "start_method"):
            with pytest.raises(TypeError):
                WorkerPolicy(**{removed: None})

    def test_rejects_negative_retries(self):
        with pytest.raises(CheckerError):
            WorkerPolicy(max_retries=-1)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(CheckerError):
            WorkerPolicy(timeout_s=0)

    def test_policy_is_the_only_fault_keyword(self):
        import inspect

        from repro.checker.sharded import run_check

        session = inspect.signature(CheckSession).parameters
        check = inspect.signature(CheckSession.check).parameters
        driver = inspect.signature(run_check).parameters
        named = [
            name for name, param in check.items()
            if name != "self" and param.kind is not param.VAR_KEYWORD
        ]
        # checker, cache_dir, streaming: jobs, the fault policy and the
        # engine belong to the session.
        assert named == ["checker", "cache_dir", "streaming"]
        for name in (
            "on_shard_failure", "max_retries", "retry_backoff",
            "shard_timeout", "start_method",
        ):
            assert name not in session and name not in driver
        assert "policy" in session and "policy" in driver

    def test_check_takes_no_policy(self, trace_file):
        session = CheckSession(trace_file, jobs=2)
        with pytest.raises(TypeError):
            session.check(policy=WorkerPolicy())
        assert session.reports == {}


class TestFailureMatrix:
    """Worker SIGKILLed mid-shard under each policy, plus timeouts."""

    def test_kill_then_retry_matches_unfaulted_run(
        self, trace_file, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        report = CheckSession(
            trace_file, jobs=2, policy=WorkerPolicy(on_failure="retry")
        ).check()
        assert keys(report) == keys(baseline)
        assert report.raw_count == baseline.raw_count

    def test_kill_then_inline_fallback_completes(
        self, trace_file, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULT_KILL_ENV, "1@0")
        report = CheckSession(
            trace_file, jobs=2,
            policy=WorkerPolicy(on_failure="inline", max_retries=0),
        ).check()
        assert keys(report) == keys(baseline)

    def test_persistent_crash_exhausts_retries(self, trace_file, monkeypatch):
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        with pytest.raises(CheckerError, match="failed after 1 attempt"):
            CheckSession(
                trace_file, jobs=2,
                policy=WorkerPolicy(on_failure="retry", max_retries=0),
            ).check()

    def test_crash_on_every_attempt_exhausts_retries(
        self, trace_file, monkeypatch
    ):
        # "0@*" kills every attempt of shard 0, so all retries fail too.
        monkeypatch.setenv(FAULT_KILL_ENV, "0@*")
        with pytest.raises(CheckerError, match="failed after 3 attempt"):
            CheckSession(
                trace_file, jobs=2,
                policy=WorkerPolicy(on_failure="retry", max_retries=2),
            ).check()

    def test_inline_fallback_survives_persistent_crash(
        self, trace_file, baseline, monkeypatch
    ):
        # Even a shard whose worker *always* dies completes inline (the
        # hooks are suspended for the in-driver call).
        monkeypatch.setenv(FAULT_KILL_ENV, "0@*")
        report = CheckSession(
            trace_file, jobs=2,
            policy=WorkerPolicy(on_failure="inline", max_retries=1),
        ).check()
        assert keys(report) == keys(baseline)
        assert os.environ[FAULT_KILL_ENV] == "0@*"  # restored after inline

    def test_timeout_expiry_retries_and_completes(
        self, trace_file, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULT_SLEEP_ENV, "0@0:30")
        report = CheckSession(
            trace_file, jobs=2,
            policy=WorkerPolicy(on_failure="retry", timeout_s=0.5),
        ).check()
        assert keys(report) == keys(baseline)

    def test_in_memory_source_retries_too(self, baseline, monkeypatch):
        trace = recorded_trace()
        fresh = CheckSession(trace, jobs=2).check()
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        report = CheckSession(
            trace, jobs=2, policy=WorkerPolicy(on_failure="retry")
        ).check()
        assert keys(report) == keys(fresh) == keys(baseline)

    def test_failure_metrics_are_counted(
        self, trace_file, baseline, monkeypatch
    ):
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        recorder = MetricsRecorder()
        report = CheckSession(
            trace_file, jobs=2, recorder=recorder,
            policy=WorkerPolicy(on_failure="retry"),
        ).check()
        counters = recorder.snapshot().counters
        assert keys(report) == keys(baseline)
        assert counters["sharded.shard_failures"] == 1
        assert counters["sharded.retries"] == 1
        assert "sharded.inline_fallbacks" not in counters

    def test_inline_fallback_metric(self, trace_file, monkeypatch):
        monkeypatch.setenv(FAULT_KILL_ENV, "1@0")
        recorder = MetricsRecorder()
        CheckSession(
            trace_file, jobs=2, recorder=recorder,
            policy=WorkerPolicy(on_failure="inline", max_retries=0),
        ).check()
        assert recorder.snapshot().counters["sharded.inline_fallbacks"] == 1


class TestCheckpointResume:
    """Resuming through the result cache: a ``jobs > 1`` miss stores each
    shard's report under the check's key plus the layout
    (``<key>.2-0.json``) as the shard completes, so a re-run of an
    interrupted check redoes only the shards with no entry; a finished
    check deletes them.  A run that seeds an observed resume stores its
    entries observed: an entry stored without metrics is a miss for a
    check with a recorder."""

    def test_finished_run_leaves_one_entry(self, trace_file, tmp_path):
        """The shard entries only serve an interrupted run: once the whole
        report is stored they are deleted, of every layout."""
        rc = str(tmp_path / "rc")
        interrupted_check(trace_file, rc, jobs=4)
        assert len(cache_entries(rc)) == 4
        CheckSession(trace_file, jobs=2).check(cache_dir=rc)
        names = cache_entries(rc)
        assert len(names) == 1 and names[0].count(".") == 1
        session = CheckSession(trace_file, jobs=2)
        session.check(cache_dir=rc)
        assert session.cache_info["hit"]

    def test_resume_after_partial_run_matches_fresh(
        self, trace_file, baseline, tmp_path
    ):
        rc = str(tmp_path / "rc")
        fresh = CheckSession(trace_file, jobs=2).check()
        # Neither the whole result nor shard 1's entry lands.
        interrupted_check(trace_file, rc, stalled=1, recorder=MetricsRecorder())
        assert cache_entries(rc) == [os.path.basename(shard_entry(rc, 2, 0))]
        recorder = MetricsRecorder()
        resumed = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            cache_dir=rc
        )
        assert resumed.describe() == fresh.describe()  # byte-identical
        assert keys(resumed) == keys(baseline)
        assert resumed.raw_count == fresh.raw_count
        counters = recorder.snapshot().counters
        assert counters["sharded.resumed_shards"] == 1
        assert counters["sharded.workers"] == 1

    def test_resume_from_complete_run_skips_all_workers(
        self, trace_file, baseline, tmp_path
    ):
        rc = str(tmp_path / "rc")
        interrupted_check(trace_file, rc, recorder=MetricsRecorder())
        recorder = MetricsRecorder()
        resumed = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            cache_dir=rc
        )
        counters = recorder.snapshot().counters
        assert keys(resumed) == keys(baseline)
        assert counters["sharded.resumed_shards"] == 2
        assert counters["sharded.workers"] == 0

    def test_resume_with_mismatched_jobs_is_refused(
        self, trace_file, tmp_path
    ):
        """A shard entry names its layout, so a ``jobs=4`` check refuses
        to resume from an interrupted ``jobs=2`` run: it merges none of
        its shards, recomputes every shard and equals a fresh run.  Then
        it deletes the ``jobs=2`` entries with its own."""
        rc = str(tmp_path / "rc")
        interrupted_check(trace_file, rc)
        recorder = MetricsRecorder()
        resumed = CheckSession(trace_file, jobs=4, recorder=recorder).check(
            cache_dir=rc
        )
        fresh = CheckSession(trace_file, jobs=4).check()
        assert resumed.describe() == fresh.describe()
        assert resumed.raw_count == fresh.raw_count
        counters = recorder.snapshot().counters
        assert counters.get("sharded.resumed_shards", 0) == 0
        assert counters["sharded.workers"] == 4
        assert len(cache_entries(rc)) == 1

    def test_fresh_run_clears_stale_shards(self, trace_file, tmp_path):
        """Same directory, new configuration: the stale shard entries of
        an interrupted ``jobs=4`` run must not leak into a ``jobs=2``
        merge, which computes both of its shards afresh, and are gone
        once it finishes."""
        rc = str(tmp_path / "rc")
        interrupted_check(trace_file, rc, jobs=4)
        recorder = MetricsRecorder()
        report = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            cache_dir=rc
        )
        fresh = CheckSession(trace_file, jobs=2).check()
        assert report.describe() == fresh.describe()
        assert report.raw_count == fresh.raw_count
        counters = recorder.snapshot().counters
        assert counters.get("sharded.resumed_shards", 0) == 0
        assert counters["sharded.workers"] == 2
        key = cache_entries(rc)[0].split(".")[0]
        assert cache_entries(rc) == [f"{key}.json"]

    def test_damaged_checkpoint_is_recomputed(
        self, trace_file, baseline, tmp_path
    ):
        rc = str(tmp_path / "rc")
        interrupted_check(trace_file, rc, recorder=MetricsRecorder())
        with open(shard_entry(rc, 2, 0), "w", encoding="utf-8") as handle:
            handle.write('{"schema": "repro-result-cache/3", "key"')
        recorder = MetricsRecorder()
        resumed = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            cache_dir=rc
        )
        assert keys(resumed) == keys(baseline)
        assert recorder.snapshot().counters["sharded.resumed_shards"] == 1

    def test_deeply_nested_shard_file_is_recomputed(self, trace_file, tmp_path):
        """A shard entry nested past the recursion limit is a miss: that
        shard is recomputed, not a ``RecursionError`` traceback."""
        rc = str(tmp_path / "rc")
        fresh = CheckSession(trace_file, jobs=2).check()
        interrupted_check(trace_file, rc, recorder=MetricsRecorder())
        with open(shard_entry(rc, 2, 0), "w", encoding="utf-8") as handle:
            handle.write(DEEP)
        recorder = MetricsRecorder()
        resumed = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            cache_dir=rc
        )
        assert resumed.describe() == fresh.describe()
        counters = recorder.snapshot().counters
        assert counters["sharded.resumed_shards"] == 1
        assert counters["sharded.workers"] == 1

    @pytest.mark.parametrize("observed", [True, False])
    @pytest.mark.parametrize("metrics", [
        {"counters": "garbage"},
        {"gauges": {"worker.pid": "1"}},
        {"spans": [{"path": "check", "count": "many"}]},
        "garbage",
    ])
    def test_damaged_shard_metrics_are_recomputed(
        self, trace_file, tmp_path, metrics, observed
    ):
        """A shard entry whose stored metrics no merge can read is a miss:
        that shard is recomputed and stored again, with or without a
        recorder, not a ``ValueError`` from the merge."""
        rc = str(tmp_path / "rc")
        fresh = CheckSession(trace_file, jobs=2).check()
        interrupted_check(trace_file, rc, recorder=MetricsRecorder())
        path = shard_entry(rc, 2, 1)
        with open(path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["meta"]["metrics"] = metrics
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)
        recorder = MetricsRecorder() if observed else None
        with watched_stores() as stored:
            resumed = CheckSession(
                trace_file, jobs=2, recorder=recorder
            ).check(cache_dir=rc)
        assert resumed.describe() == fresh.describe()
        # The finished resume deletes the file, so read what it stored.
        restored = [meta["metrics"] for shard, meta in stored if shard == "2-1"]
        assert len(restored) == 1 and restored[0] != metrics
        if observed:
            counters = recorder.snapshot().counters
            assert counters["sharded.resumed_shards"] == 1
            assert counters["sharded.workers"] == 1

    def test_unobserved_shard_entries_resume_with_fresh_counters(
        self, trace_file, tmp_path
    ):
        """A shard entry stored by a check without a recorder holds no
        metrics.  An observed resume recomputes that shard and stores it
        again with its metrics, so its counters equal a fresh run's; it
        used to merge no counters for the shard.  The next resume then
        serves the entry."""
        recorder = MetricsRecorder()
        fresh = CheckSession(trace_file, jobs=2, recorder=recorder).check()
        expected = resume_counters(recorder)
        assert expected["sharded.shards_nonempty"] == 2
        for resumed_shards in (0, 1):
            rc = str(tmp_path / f"rc{resumed_shards}")
            interrupted_check(trace_file, rc, stalled=1)
            if resumed_shards:
                # An observed run re-stores shard 0 with its metrics
                # before it, too, is interrupted.
                interrupted_check(
                    trace_file, rc, stalled=1, recorder=MetricsRecorder()
                )
                with open(shard_entry(rc, 2, 0), encoding="utf-8") as handle:
                    assert json.load(handle)["meta"]["metrics"] is not None
            recorder = MetricsRecorder()
            resumed = CheckSession(trace_file, jobs=2, recorder=recorder).check(
                cache_dir=rc
            )
            assert resumed.describe() == fresh.describe()
            assert resume_counters(recorder) == expected
            counters = recorder.snapshot().counters
            assert counters.get("sharded.resumed_shards", 0) == resumed_shards
            assert counters["sharded.workers"] == 2 - resumed_shards

    def test_unobserved_resume_serves_entries_without_metrics(
        self, trace_file, tmp_path
    ):
        """Without a recorder a shard entry's metrics are not needed: an
        entry stored unobserved is served, not recomputed."""
        rc = str(tmp_path / "rc")
        fresh = CheckSession(trace_file, jobs=2).check()
        interrupted_check(trace_file, rc, stalled=1)
        with watched_stores() as stored:
            resumed = CheckSession(trace_file, jobs=2).check(cache_dir=rc)
        assert resumed.describe() == fresh.describe()
        # Shard 0 served, not stored again.
        assert [shard for shard, _ in stored] == ["2-1", ""]

    def test_jobs1_checkpoints_as_single_shard(
        self, trace_file, baseline, tmp_path
    ):
        """At ``jobs=1`` the whole-result entry is the only entry."""
        rc = str(tmp_path / "rc")
        first = CheckSession(trace_file, jobs=1).check(cache_dir=rc)
        assert len(cache_entries(rc)) == 1
        assert not cache_entries(rc)[0].endswith("-0.json")
        session = CheckSession(trace_file, jobs=1)
        second = session.check(cache_dir=rc)
        assert session.cache_info["hit"]
        assert first.describe() == second.describe()
        assert keys(second) == keys(baseline)

    def test_kill_plus_checkpoint_then_resume(
        self, trace_file, baseline, tmp_path, monkeypatch
    ):
        # Interrupted run: shard 0's worker stalls on every attempt and is
        # killed at its timeout, aborting the run -- but shard 1 finishes
        # first and its entry survives.
        rc = str(tmp_path / "rc")
        monkeypatch.setenv(FAULT_SLEEP_ENV, "0@*:30")
        with pytest.raises(CheckerError, match="timed out"):
            CheckSession(
                trace_file, jobs=2, recorder=MetricsRecorder(),
                policy=WorkerPolicy(max_retries=0, timeout_s=INTERRUPT_S),
            ).check(cache_dir=rc)
        assert len(cache_entries(rc)) == 1
        assert os.path.exists(shard_entry(rc, 2, 1))
        monkeypatch.delenv(FAULT_SLEEP_ENV)
        recorder = MetricsRecorder()
        resumed = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            cache_dir=rc
        )
        assert keys(resumed) == keys(baseline)
        assert resumed.describe() == CheckSession(trace_file, jobs=2).check(
        ).describe()
        counters = recorder.snapshot().counters
        assert counters["sharded.resumed_shards"] == 1
        assert counters["sharded.workers"] == 1

    def test_store_validates_schema(self, trace_file, tmp_path):
        """A shard entry of another schema is recomputed, not merged."""
        rc = str(tmp_path / "rc")
        fresh = CheckSession(trace_file, jobs=2).check()
        interrupted_check(trace_file, rc, recorder=MetricsRecorder())
        path = shard_entry(rc, 2, 0)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["schema"] = "other/1"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        recorder = MetricsRecorder()
        resumed = CheckSession(trace_file, jobs=2, recorder=recorder).check(
            cache_dir=rc
        )
        assert resumed.describe() == fresh.describe()
        assert recorder.snapshot().counters["sharded.resumed_shards"] == 1

    def test_other_trace_is_not_served_from_the_same_dir(self, tmp_path):
        """A shard entry of one trace was served to another trace checked
        into the same directory: a safe trace printed the buggy one's
        triple."""

        def safe(ctx):
            def rmw(inner):
                inner.write("X", inner.read("X") + 1)

            ctx.spawn(rmw)
            ctx.sync()
            ctx.spawn(rmw)
            ctx.sync()

        rc = str(tmp_path / "rc")
        buggy = str(tmp_path / "buggy.jsonl")
        dump_trace_jsonl(recorded_trace(), buggy)
        assert CheckSession(buggy, jobs=2).check(cache_dir=rc)
        path = str(tmp_path / "safe.jsonl")
        dump_trace_jsonl(run_program(
            TaskProgram(safe, initial_memory={"X": 0}), record_trace=True
        ).trace, path)
        report = CheckSession(path, jobs=2).check(cache_dir=rc)
        assert report.describe() == "no violations"

    def test_lenient_result_is_not_served_to_a_strict_check(
        self, trace_file, tmp_path
    ):
        """A lenient run's shard entries answered a later strict check of
        the same damaged file, which on its own refuses the file."""
        rc = str(tmp_path / "rc")
        with open(trace_file, "a", encoding="utf-8") as handle:
            handle.write("{garbage line\n")
        assert CheckSession(trace_file, jobs=2, strict=False).check(
            cache_dir=rc
        )
        with pytest.raises(CheckerError, match="TraceError"):
            CheckSession(trace_file, jobs=2).check(cache_dir=rc)


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
                faulted = CheckSession(
                    path, jobs=2, policy=WorkerPolicy(on_failure="retry")
                ).check()
            finally:
                del os.environ[FAULT_KILL_ENV]
            assert keys(faulted) == keys(base), case.name
            assert faulted.raw_count == base.raw_count, case.name

            rc = str(tmp_path / f"rc-{case.name}")
            fresh = CheckSession(path, jobs=2).check()
            interrupted_check(path, rc, stalled=index % 2)
            resumed = CheckSession(path, jobs=2).check(cache_dir=rc)
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

    def test_skip_count_survives_a_resume(self, trace_file, tmp_path):
        """A shard entry carries its shard's skips (shard 0 counts the
        unstamped garbage lines), so a resume counts what a fresh run
        counts, whichever shard it recomputes."""
        self.corrupt(trace_file)
        for stalled in (0, 1):
            rc = str(tmp_path / f"rc{stalled}")
            interrupted_check(trace_file, rc, stalled=stalled, strict=False)
            session = CheckSession(trace_file, jobs=2, strict=False)
            session.check(cache_dir=rc)
            assert session.lines_skipped == 2

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
        ).check()
        assert keys(report) == keys(baseline)
        assert comparable_counters(
            solo.snapshot().counters
        ) == comparable_counters(sharded.snapshot().counters)


class TestStartMethods:
    """``REPRO_START_METHOD`` is the one start-method setting."""

    def test_spawn_produces_identical_report(
        self, trace_file, baseline, monkeypatch
    ):
        forked = CheckSession(trace_file, jobs=2).check()
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        spawned = CheckSession(trace_file, jobs=2).check()
        assert spawned.describe() == forked.describe()  # byte-identical
        assert keys(spawned) == keys(baseline)

    def test_env_override_is_honored(self, trace_file, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "teleport")
        with pytest.raises(CheckerError, match="not available"):
            CheckSession(trace_file, jobs=2).check()

    def test_unpicklable_payload_is_a_clear_error(
        self, trace_file, monkeypatch
    ):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        checker = OptAtomicityChecker()
        checker.unpicklable = lambda: None  # closures cannot be pickled
        with pytest.raises(CheckerError, match="picklable"):
            CheckSession(trace_file, jobs=2, checker=checker).check()


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
            CheckSession(
                trace_file, jobs=2, policy=WorkerPolicy(max_retries=0)
            ).check()
        # The path is still checkable: no leaked handle, no stale state.
        monkeypatch.delenv(FAULT_KILL_ENV)
        assert CheckSession(trace_file, jobs=2).check()

    def test_caller_reader_left_open(self, trace_file):
        """A reader is no source: a file is checked by its path, and
        ``strict=`` alone sets the trace mode.  The session refuses the
        caller's reader and leaves it open."""
        from repro.trace.serialize import open_trace

        reader = open_trace(trace_file)
        with pytest.raises(TraceError, match="cannot check"):
            CheckSession(reader, jobs=2)
        assert not reader.closed  # caller-owned: caller closes
        reader.close()


class TestSessionWiring:
    def test_session_checkpoint_resume(self, trace_file, baseline, tmp_path):
        rc = str(tmp_path / "rc")
        fresh = CheckSession(trace_file, jobs=2).check()
        interrupted_check(trace_file, rc, stalled=0)
        resumed = CheckSession(trace_file, jobs=2).check(cache_dir=rc)
        assert fresh.describe() == resumed.describe()  # byte-identical
        assert keys(resumed) == keys(baseline)

    def test_session_jobs1_checkpoint_routes_through_driver(
        self, trace_file, baseline, tmp_path, monkeypatch
    ):
        """A cached ``jobs=1`` miss is the driver's one shard body, run
        once; it stores the whole entry and no shard entry."""
        from repro.checker import sharded

        replays = []
        replay_shard = sharded._replay_shard

        def counted(*args, **kwargs):
            replays.append(kwargs.get("shard", 0))
            return replay_shard(*args, **kwargs)

        monkeypatch.setattr(sharded, "_replay_shard", counted)
        rc = str(tmp_path / "rc")
        report = CheckSession(trace_file, jobs=1).check(cache_dir=rc)
        assert keys(report) == keys(baseline)
        assert replays == [0]
        assert [n.count(".") for n in cache_entries(rc)] == [1]

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
        report = CheckSession(
            trace_file, jobs=2, policy=WorkerPolicy(on_failure="retry")
        ).check()
        assert keys(report) == keys(baseline)
