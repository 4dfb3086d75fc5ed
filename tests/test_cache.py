"""The content-addressed result cache: keys, storage, session integration."""

import json
import os

import pytest

from repro import CheckSession, TaskProgram, run_program
from repro.cache import (
    CACHE_SCHEMA,
    ResultCache,
    checker_cache_token,
    file_digest,
    normalized_report_copy,
    result_cache_key,
    trace_digest,
)
from repro.checker import OptAtomicityChecker
from repro.obs import MetricsRecorder
from repro.report import report_to_dict
from repro.trace.serialize import dump_trace


def _rmw(ctx):
    value = ctx.read("X")
    ctx.write("X", value + 1)


def buggy_body(ctx):
    ctx.write("X", 0)
    ctx.spawn(_rmw)
    ctx.spawn(_rmw)
    ctx.sync()


@pytest.fixture
def trace():
    return run_program(TaskProgram(buggy_body), record_trace=True).trace


def report_bytes(report):
    return json.dumps(report_to_dict(report), sort_keys=True)


class TestDigests:
    def test_trace_digest_is_deterministic(self, trace):
        assert trace_digest(trace) == trace_digest(trace)

    def test_trace_digest_sees_every_event(self, trace):
        from repro.trace.trace import Trace

        truncated = Trace(trace.events[:-1], dpst=trace.dpst)
        assert trace_digest(truncated) != trace_digest(trace)

    def test_file_digest_tracks_content(self, trace, tmp_path):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        dump_trace(trace, a, format="jsonl")
        dump_trace(trace, b, format="jsonl")
        assert file_digest(a) == file_digest(b)
        with open(b, "a", encoding="utf-8") as handle:
            handle.write("\n")
        assert file_digest(a) != file_digest(b)


class TestCheckerToken:
    def test_string_specs_are_cacheable(self):
        assert checker_cache_token("optimized") == "optimized"

    def test_kwargs_fold_into_the_token(self):
        plain = checker_cache_token("optimized")
        thorough = checker_cache_token("optimized", {"mode": "thorough"})
        assert thorough is not None and thorough != plain

    def test_class_and_instance_specs_are_not(self):
        assert checker_cache_token(OptAtomicityChecker) is None
        assert checker_cache_token(OptAtomicityChecker()) is None

    def test_unserializable_kwargs_are_not(self):
        assert checker_cache_token("optimized", {"hook": object()}) is None


class TestKey:
    def test_every_component_changes_the_key(self):
        base = dict(
            trace_digest="d1", checker_token="optimized",
            engine="lca", strict=True,
        )
        key = result_cache_key(**base)
        for field, other in (
            ("trace_digest", "d2"),
            ("checker_token", "basic"),
            ("engine", "depa"),
            ("strict", False),
        ):
            varied = dict(base)
            varied[field] = other
            assert result_cache_key(**varied) != key, field


class TestStore:
    def test_store_then_load(self, trace, tmp_path):
        report = CheckSession(trace).check()
        cache = ResultCache(str(tmp_path / "rc"))
        key = "ab" * 32
        nbytes = cache.store(key, report, meta={"checker": "optimized"})
        entry = cache.load(key)
        assert entry is not None
        assert entry.nbytes == nbytes
        assert entry.meta == {"checker": "optimized"}
        assert report_bytes(entry.report) == report_bytes(report)

    def test_entries_are_compact_and_indented_ones_still_load(
        self, trace, tmp_path
    ):
        report = CheckSession(trace).check()
        cache = ResultCache(str(tmp_path / "rc"))
        key = "ab" * 32
        cache.store(key, report)
        path = cache._path(key)
        raw = open(path).read()
        assert raw.count("\n") == 1 and ", " not in raw
        open(path, "w").write(json.dumps(json.loads(raw), indent=2))
        assert report_bytes(cache.load(key).report) == report_bytes(report)

    def test_missing_key_is_a_miss(self, tmp_path):
        assert ResultCache(str(tmp_path / "rc")).load("cd" * 32) is None

    def test_damaged_entry_is_a_miss(self, trace, tmp_path):
        cache = ResultCache(str(tmp_path / "rc"))
        key = "ef" * 32
        cache.store(key, CheckSession(trace).check())
        path = cache._path(key)
        open(path, "w").write("{torn write")
        assert cache.load(key) is None

    def test_foreign_schema_is_a_miss(self, trace, tmp_path):
        cache = ResultCache(str(tmp_path / "rc"))
        key = "01" * 32
        cache.store(key, CheckSession(trace).check())
        path = cache._path(key)
        data = json.loads(open(path).read())
        data["schema"] = CACHE_SCHEMA + "-future"
        open(path, "w").write(json.dumps(data))
        assert cache.load(key) is None

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda path: open(path, "w").close(), id="empty-file"),
            pytest.param(
                lambda path: open(path, "wb").write(b"\x00\xff" * 64),
                id="binary-garbage",
            ),
            pytest.param(
                lambda path: open(path, "w").write(json.dumps([1, 2, 3])),
                id="non-dict-json",
            ),
        ],
    )
    def test_more_damage_modes_are_misses(self, trace, tmp_path, damage):
        cache = ResultCache(str(tmp_path / "rc"))
        key = "23" * 32
        cache.store(key, CheckSession(trace).check())
        damage(cache._path(key))
        assert cache.load(key) is None

    def test_valid_json_bad_report_payload_is_a_miss(self, trace, tmp_path):
        """Schema and key line up but the report body does not decode."""
        cache = ResultCache(str(tmp_path / "rc"))
        key = "45" * 32
        cache.store(key, CheckSession(trace).check())
        path = cache._path(key)
        data = json.loads(open(path).read())
        data["report"] = {"violations": "not-a-list"}
        open(path, "w").write(json.dumps(data))
        assert cache.load(key) is None

    def test_non_dict_meta_is_a_miss(self, trace, tmp_path):
        """A shard's metrics snapshot is read from ``meta``; a ``meta``
        that is not an object is damage, not an ``AttributeError``."""
        cache = ResultCache(str(tmp_path / "rc"))
        key = "4a" * 32
        cache.store(key, CheckSession(trace).check())
        path = cache._path(key)
        data = json.loads(open(path).read())
        data["meta"] = [1, 2]
        open(path, "w").write(json.dumps(data))
        assert cache.load(key) is None

    def test_key_mismatch_is_a_miss(self, trace, tmp_path):
        """An entry copied to the wrong slot never serves for that key."""
        cache = ResultCache(str(tmp_path / "rc"))
        key, other = "67" * 32, "89" * 32
        cache.store(key, CheckSession(trace).check())
        os.makedirs(os.path.dirname(cache._path(other)), exist_ok=True)
        open(cache._path(other), "w").write(open(cache._path(key)).read())
        assert cache.load(other) is None

    def test_restore_recovers_damaged_entry(self, trace, tmp_path):
        cache = ResultCache(str(tmp_path / "rc"))
        key = "ab" * 32
        report = CheckSession(trace).check()
        cache.store(key, report)
        open(cache._path(key), "w").write("{torn write")
        assert cache.load(key) is None
        cache.store(key, report)
        entry = cache.load(key)
        assert entry is not None
        assert report_bytes(entry.report) == report_bytes(report)


class TestNormalizedCopy:
    def test_jobs_layout_insensitive(self, trace):
        sequential = CheckSession(trace, jobs=1).check()
        sharded = CheckSession(trace, jobs=4).check()
        assert report_bytes(normalized_report_copy(sequential)) == report_bytes(
            normalized_report_copy(sharded)
        )

    def test_raw_count_preserved(self, trace):
        report = CheckSession(trace).check()
        assert normalized_report_copy(report).raw_count == report.raw_count


class TestSessionIntegration:
    def test_miss_then_hit_byte_identical(self, trace, tmp_path):
        cache_dir = str(tmp_path / "rc")
        first = CheckSession(trace)
        fresh = first.check(cache_dir=cache_dir)
        assert first.cache_info["applied"] and not first.cache_info["hit"]
        second = CheckSession(trace, jobs=4)
        served = second.check(cache_dir=cache_dir)
        assert second.cache_info["hit"]
        assert second.cache_info["key"] == first.cache_info["key"]
        assert report_bytes(served) == report_bytes(fresh)

    def test_file_sources_hit_too(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace(trace, path, format="columnar")
        cache_dir = str(tmp_path / "rc")
        CheckSession(path).check(cache_dir=cache_dir)
        session = CheckSession(path)
        session.check(cache_dir=cache_dir)
        assert session.cache_info["hit"]

    def test_metrics(self, trace, tmp_path):
        cache_dir = str(tmp_path / "rc")
        miss = MetricsRecorder()
        CheckSession(trace, recorder=miss).check(cache_dir=cache_dir)
        counters = miss.snapshot().counters
        assert counters["cache.miss"] == 1
        assert counters["cache.bytes"] > 0
        assert "cache.hit" not in counters
        hit = MetricsRecorder()
        CheckSession(trace, recorder=hit).check(cache_dir=cache_dir)
        counters = hit.snapshot().counters
        assert counters["cache.hit"] == 1
        assert counters["cache.bytes"] > 0
        assert "cache.miss" not in counters

    def test_undecodable_location_is_a_miss(self, trace, tmp_path):
        """A stored location that fails to decode raises TraceError inside
        the cache; the check must treat it as a miss, recompute, and
        rewrite the entry."""
        cache_dir = str(tmp_path / "rc")
        first = CheckSession(trace)
        fresh = first.check(cache_dir=cache_dir)
        key = first.cache_info["key"]
        cache = ResultCache(cache_dir)
        path = cache._path(key)
        data = json.loads(open(path).read())
        data["report"]["cycles"] = [{"location": {"q": 1}}]
        open(path, "w").write(json.dumps(data))
        assert cache.load(key) is None
        session = CheckSession(trace)
        served = session.check(cache_dir=cache_dir)
        assert not session.cache_info["hit"]
        assert report_bytes(served) == report_bytes(fresh)
        entry = cache.load(key)
        assert entry is not None
        assert report_bytes(entry.report) == report_bytes(fresh)

    def test_no_cache_dir_means_no_cache_info(self, trace):
        session = CheckSession(trace)
        session.check()
        assert session.cache_info is None

    def test_engine_is_part_of_the_key(self, trace, tmp_path):
        cache_dir = str(tmp_path / "rc")
        CheckSession(trace, engine="lca").check(cache_dir=cache_dir)
        session = CheckSession(trace, engine="depa")
        session.check(cache_dir=cache_dir)
        assert session.cache_info["applied"]
        assert not session.cache_info["hit"]

    def test_lenient_reader_result_is_keyed_lenient(self, tmp_path):
        """A session over a lenient :class:`TraceReader` used to key its
        result with its own default ``strict=True``, so a later strict
        check of the damaged file was a hit that returned no violations
        instead of raising.  A reader is no source now: ``strict=`` is the
        one owner of the trace mode, and a lenient result is keyed
        lenient."""
        from repro.errors import TraceError
        from repro.suite import all_cases
        from repro.trace.serialize import open_trace

        case = next(c for c in all_cases() if c.name == "pattern_rwr")
        path = tmp_path / "t.jsonl"
        trace = run_program(case.build(), record_trace=True).trace
        dump_trace(trace, str(path), format="jsonl")
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        first = next(i for i, line in enumerate(lines) if '"MemoryEvent"' in line)
        lines[first] = lines[first][:20]
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        cache_dir = str(tmp_path / "rc")
        with pytest.raises(TraceError):
            CheckSession(str(path)).check(cache_dir=cache_dir)
        with open_trace(str(path), strict=False) as reader:
            with pytest.raises(TraceError, match="cannot check"):
                CheckSession(reader)
        session = CheckSession(str(path), strict=False)
        session.check(cache_dir=cache_dir)
        assert session.lines_skipped == 1
        assert not session.cache_info["hit"]
        # The strict check still refuses the file; a lenient one is a hit.
        with pytest.raises(TraceError):
            CheckSession(str(path)).check(cache_dir=cache_dir)
        lenient = CheckSession(str(path), strict=False)
        lenient.check(cache_dir=cache_dir)
        assert lenient.cache_info["hit"]
        assert lenient.lines_skipped == 1

    @pytest.mark.parametrize("suffix", ["jsonl", "trc"])
    def test_hit_opens_no_trace(self, trace, tmp_path, monkeypatch, suffix):
        """A hit on a file source reads the file's digest and the entry,
        never the trace itself (its header, DPST and v3 footer)."""
        path = str(tmp_path / f"t.{suffix}")
        dump_trace(trace, path)
        cache_dir = str(tmp_path / "rc")
        fresh = CheckSession(path).check(cache_dir=cache_dir)

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit opened the trace file")

        monkeypatch.setattr("repro.session.open_trace", refuse)
        session = CheckSession(path)
        served = session.check(cache_dir=cache_dir)
        assert session.cache_info["hit"]
        assert served.describe() == fresh.describe()
        assert session.lines_skipped == 0

    def test_miss_opens_once_and_stores(self, trace, tmp_path, monkeypatch):
        from repro.trace.serialize import open_trace

        path = str(tmp_path / "t.trc")
        dump_trace(trace, path)
        cache_dir = str(tmp_path / "rc")
        opened = []

        def counting(*args, **kwargs):
            opened.append(args)
            return open_trace(*args, **kwargs)

        monkeypatch.setattr("repro.session.open_trace", counting)
        session = CheckSession(path)
        assert opened == []
        report = session.check(cache_dir=cache_dir)
        assert not session.cache_info["hit"]
        assert len(opened) == 1
        entry = ResultCache(cache_dir).load(session.cache_info["key"])
        assert report_bytes(entry.report) == report_bytes(report)
        session.check("basic", cache_dir=cache_dir)
        assert len(opened) == 1

    def test_file_gone_before_the_check_is_a_trace_error(self, trace, tmp_path):
        """The digest is the first read of a path source's file; a file
        removed after the constructor's check fails it with a
        :class:`TraceError` naming the path, not an ``OSError``."""
        from repro.errors import TraceError

        path = str(tmp_path / "t.trc")
        dump_trace(trace, path)
        session = CheckSession(path)
        os.unlink(path)
        with pytest.raises(TraceError, match="t.trc"):
            session.check(cache_dir=str(tmp_path / "rc"))

    def test_deeply_nested_entry_is_a_miss(self, trace, tmp_path):
        """An entry nested past the recursion limit ended the check in a
        ``RecursionError`` traceback; it is a miss, recomputed and
        rewritten."""
        path = str(tmp_path / "t.trc")
        dump_trace(trace, path)
        cache_dir = str(tmp_path / "rc")
        first = CheckSession(path)
        fresh = first.check(cache_dir=cache_dir)
        key = first.cache_info["key"]
        with open(ResultCache(cache_dir)._path(key), "w") as handle:
            handle.write("[" * 100_000 + "]" * 100_000)
        assert ResultCache(cache_dir).load(key) is None
        session = CheckSession(path)
        served = session.check(cache_dir=cache_dir)
        assert not session.cache_info["hit"]
        assert served.describe() == fresh.describe()
        assert ResultCache(cache_dir).load(key) is not None

    def test_previous_schema_entries_are_not_served(
        self, trace, tmp_path, monkeypatch
    ):
        """A ``/1`` entry predates today's readers: a hit no longer opens
        the file, and a lenient reader's result could be filed under the
        strict ``/1`` key, serving "no violations" to a strict check of
        the damaged file.  No such entry is served."""
        from repro.errors import TraceError
        from repro.report import ViolationReport

        path = str(tmp_path / "t.jsonl")
        dump_trace(trace, path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{junk\n")
        cache_dir = str(tmp_path / "rc")
        monkeypatch.setattr("repro.cache.CACHE_SCHEMA", "repro-result-cache/1")
        key = result_cache_key("file:" + file_digest(path), "optimized", "lca", True)
        ResultCache(cache_dir).store(key, ViolationReport())
        assert ResultCache(cache_dir).load(key) is not None
        monkeypatch.undo()
        assert CACHE_SCHEMA != "repro-result-cache/1"
        with pytest.raises(TraceError):
            CheckSession(path).check(cache_dir=cache_dir)

    def test_checker_kwargs_are_part_of_the_key(self, trace, tmp_path):
        cache_dir = str(tmp_path / "rc")
        CheckSession(trace).check(cache_dir=cache_dir)
        session = CheckSession(trace)
        session.check(cache_dir=cache_dir, mode="thorough")
        assert session.cache_info["applied"]
        assert not session.cache_info["hit"]
        # ... and the kwargs variant caches under its own key.
        repeat = CheckSession(trace)
        repeat.check(cache_dir=cache_dir, mode="thorough")
        assert repeat.cache_info["hit"]


class TestBypasses:
    def test_instance_spec_bypasses(self, trace, tmp_path):
        session = CheckSession(trace, checker=OptAtomicityChecker())
        session.check(cache_dir=str(tmp_path / "rc"))
        info = session.cache_info
        assert info["requested"] and not info["applied"]
        assert "not content-addressable" in info["reason"]

    def test_nontrivial_annotations_bypass(self, trace, tmp_path):
        from repro.checker.annotations import AtomicAnnotations

        session = CheckSession(
            trace, annotations=AtomicAnnotations().annotate("X")
        )
        session.check(cache_dir=str(tmp_path / "rc"))
        assert not session.cache_info["applied"]
        assert "annotations" in session.cache_info["reason"]

    def test_bypass_counts_a_metric(self, trace, tmp_path):
        recorder = MetricsRecorder()
        session = CheckSession(
            trace, checker=OptAtomicityChecker(), recorder=recorder
        )
        session.check(cache_dir=str(tmp_path / "rc"))
        assert recorder.snapshot().counters["cache.bypass"] == 1

    def test_bypassed_check_still_reports(self, trace, tmp_path):
        session = CheckSession(trace, checker=OptAtomicityChecker())
        report = session.check(cache_dir=str(tmp_path / "rc"))
        assert set(report.locations()) == {"X"}


# ---------------------------------------------------------------------------
# Concurrent writers: two processes racing one key must both succeed
# ---------------------------------------------------------------------------


def _race_check_worker(trace_path, cache_dir, out_path):
    """One racing process: full session check through the shared cache."""
    from repro import CheckSession

    session = CheckSession(trace_path)
    report = session.check(cache_dir=cache_dir)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"bytes": report_bytes(report), "hit": session.cache_info["hit"]},
            handle,
        )


def _hammer_store_worker(trace_path, cache_dir, key, rounds):
    """Store the same entry *rounds* times; every own reload must hit."""
    from repro import CheckSession
    from repro.cache import ResultCache, normalized_report_copy

    report = normalized_report_copy(CheckSession(trace_path).check())
    expected = report_bytes(report)
    cache = ResultCache(cache_dir)
    for _ in range(rounds):
        cache.store(key, report)
        entry = cache.load(key)
        assert entry is not None, "store immediately followed by a miss"
        assert report_bytes(entry.report) == expected, "torn or foreign read"


class TestConcurrentWriters:
    """The atomic temp-file + ``os.replace`` discipline under real races.

    Readers must never observe a torn entry: every load is either a miss
    or a complete, byte-identical report, no matter how many writers are
    replacing the same key at the time.
    """

    def _start(self, target, args):
        from repro.checker.supervisor import worker_context

        process = worker_context().Process(target=target, args=args)
        process.start()
        return process

    def _join(self, processes):
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

    def test_two_sessions_race_one_key(self, trace, tmp_path):
        trace_path = str(tmp_path / "t.trc")
        dump_trace(trace, trace_path, format="columnar")
        cache_dir = str(tmp_path / "rc")
        outs = [str(tmp_path / f"out{i}.json") for i in range(2)]
        processes = [
            self._start(_race_check_worker, (trace_path, cache_dir, out))
            for out in outs
        ]
        self._join(processes)
        results = [json.load(open(out)) for out in outs]
        assert results[0]["bytes"] == results[1]["bytes"]
        # Whatever the interleaving, a later check through the same
        # directory is a clean hit serving those same bytes.
        session = CheckSession(trace_path)
        served = session.check(cache_dir=cache_dir)
        assert session.cache_info["hit"]
        assert report_bytes(served) == results[0]["bytes"]

    def test_store_load_hammer(self, trace, tmp_path):
        trace_path = str(tmp_path / "t.trc")
        dump_trace(trace, trace_path, format="columnar")
        cache_dir = str(tmp_path / "rc")
        key = "cd" * 32
        processes = [
            self._start(
                _hammer_store_worker, (trace_path, cache_dir, key, 100)
            )
            for _ in range(2)
        ]
        self._join(processes)
        entry = ResultCache(cache_dir).load(key)
        assert entry is not None
