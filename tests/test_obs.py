"""Unit and integration tests for :mod:`repro.obs`.

Covers the value types (SpanStats, MetricsSnapshot merge
semantics), the Recorder protocol (no-op default vs the collecting
MetricsRecorder, span path nesting, shard attachment), the pipeline
integration points (replay, CheckSession, RunResult), the metric name
registry, and the CLI surface (``--metrics`` and ``repro stats``).
"""

import json
import warnings

import pytest

from repro.checker import OptAtomicityChecker
from repro.dpst import EngineStats, LabelEngine, LCAEngine
from repro.obs import (
    METRIC_NAMES,
    METRICS_SCHEMA,
    NULL_RECORDER,
    SHARD_SENSITIVE_METRICS,
    MetricsRecorder,
    MetricsSnapshot,
    Recorder,
    SpanStats,
    comparable_counters,
    flush_engine_stats,
    flush_observer_metrics,
    is_metrics_dict,
)
from repro.runtime import TaskProgram, run_program
from repro.session import CheckSession


def counter_program():
    """Two parallel unprotected increments: one guaranteed violation."""

    def increment(ctx):
        value = ctx.read("counter")
        ctx.write("counter", value + 1)

    def main(ctx):
        ctx.write("counter", 0)
        ctx.spawn(increment)
        ctx.spawn(increment)
        ctx.sync()

    return TaskProgram(main, name="obs-counter")


# -- value types -------------------------------------------------------------


class TestSpanStats:
    def test_record_and_merge(self):
        span = SpanStats("check/replay")
        span.record(0.5)
        span.record(1.5)
        other = SpanStats("check/replay")
        other.record(0.1)
        span.merge(other)
        assert span.count == 3
        assert span.total_s == pytest.approx(2.1)
        assert span.min_s == 0.1 and span.max_s == 1.5

    def test_dict_round_trip(self):
        span = SpanStats("replay")
        span.record(0.25)
        assert SpanStats.from_dict(span.to_dict()) == span


class TestMetricsSnapshot:
    def sample(self, counter=3, gauge=5.0):
        snapshot = MetricsSnapshot()
        snapshot.counters["trace.events.routed"] = counter
        snapshot.gauges["dpst.nodes"] = gauge
        span = SpanStats("replay")
        span.record(0.5)
        snapshot.spans["replay"] = span
        return snapshot

    def test_merge_counters_sum_gauges_max(self):
        merged = MetricsSnapshot.merge(
            [self.sample(counter=3, gauge=5.0), self.sample(counter=4, gauge=2.0)]
        )
        assert merged.counters["trace.events.routed"] == 7
        assert merged.gauges["dpst.nodes"] == 5.0
        assert merged.spans["replay"].count == 2

    def test_json_round_trip(self, tmp_path):
        snapshot = self.sample()
        snapshot.shards = [{"shard": 0, "counters": {"x": 1}}]
        path = str(tmp_path / "m.json")
        snapshot.dump(path)
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["schema"] == METRICS_SCHEMA
        assert is_metrics_dict(data)
        clone = MetricsSnapshot.load(path)
        assert clone.counters == snapshot.counters
        assert clone.gauges == snapshot.gauges
        assert clone.spans["replay"] == snapshot.spans["replay"]
        assert clone.shards == snapshot.shards

    def test_bool_and_detection(self):
        assert not MetricsSnapshot()
        assert self.sample()
        assert not is_metrics_dict({"schema": "something-else"})
        assert not is_metrics_dict([1, 2, 3])

    @pytest.mark.parametrize("data", [
        "garbage",
        {"counters": "garbage"},
        {"counters": [["x", 1]]},
        {"gauges": {"dpst.nodes": "5"}},
        {"counters": {"x": True}},
        {"counters": {"x": None}},
        {"spans": {"replay": {}}},
        {"spans": ["replay"]},
        {"spans": [{"count": 1}]},
        {"spans": [{"path": "replay", "count": "1"}]},
        {"spans": [{"path": "replay", "count": 1, "total_s": "0.5"}]},
        {"spans": [{"path": "replay", "count": 1, "min_s": []}]},
        {"shards": {"0": {}}},
        {"shards": [1]},
    ])
    def test_from_dict_refuses_what_it_cannot_merge(self, data):
        with pytest.raises(ValueError):
            MetricsSnapshot.from_dict(data)

    def test_from_dict_reads_what_to_dict_writes(self):
        snapshot = self.sample()
        snapshot.shards = [{"shard": 0, "counters": {"x": 1}}]
        clone = MetricsSnapshot.from_dict(snapshot.to_dict())
        assert clone.to_dict() == snapshot.to_dict()


# -- the Recorder protocol ---------------------------------------------------


class TestNullRecorder:
    def test_everything_is_a_cheap_no_op(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.count("x")
        NULL_RECORDER.gauge("x", 1.0)
        NULL_RECORDER.add_shard(0, {})
        with NULL_RECORDER.span("phase"):
            pass
        assert NULL_RECORDER.counter_value("x") == 0
        assert not NULL_RECORDER.snapshot()

    def test_null_recorder_is_base_class_instance(self):
        assert type(NULL_RECORDER) is Recorder

    def test_flush_helpers_skip_disabled_recorder(self):
        class Exploding:
            def metrics(self):  # pragma: no cover - must never run
                raise AssertionError("flushed into a disabled recorder")

        flush_observer_metrics(NULL_RECORDER, Exploding())
        flush_engine_stats(NULL_RECORDER, None)


class TestMetricsRecorder:
    def test_counters_gauges_histograms(self):
        recorder = MetricsRecorder()
        recorder.count("c")
        recorder.count("c", 4)
        recorder.gauge("g", 2.0)
        recorder.gauge("g", 9.0)
        assert recorder.counter_value("c") == 5
        snapshot = recorder.snapshot()
        assert snapshot.counters == {"c": 5}
        assert snapshot.gauges == {"g": 9.0}  # gauge keeps last set value
        # Histograms are gone: nothing recorded one, and the JSON has no key.
        assert not hasattr(recorder, "observe")
        assert set(snapshot.to_dict()) == {"schema", "counters", "gauges", "spans"}

    def test_span_paths_nest(self):
        recorder = MetricsRecorder()
        with recorder.span("check"):
            with recorder.span("replay"):
                pass
            with recorder.span("replay"):
                pass
        spans = recorder.snapshot().spans
        assert set(spans) == {"check", "check/replay"}
        assert spans["check/replay"].count == 2
        assert spans["check"].count == 1
        assert spans["check"].total_s >= spans["check/replay"].total_s

    def test_snapshot_is_a_copy(self):
        recorder = MetricsRecorder()
        recorder.count("c")
        snapshot = recorder.snapshot()
        recorder.count("c")
        assert snapshot.counters["c"] == 1
        assert recorder.counter_value("c") == 2

    def test_add_shard_merges_totals_keeps_spans_per_shard(self):
        worker = MetricsRecorder()
        worker.count("trace.events.routed", 10)
        with worker.span("replay"):
            pass
        parent = MetricsRecorder()
        parent.count("trace.events.routed", 5)
        parent.add_shard(1, worker.snapshot().to_dict())
        snapshot = parent.snapshot()
        # Counters merged into the parent totals...
        assert snapshot.counters["trace.events.routed"] == 15
        # ...but the worker's spans stay addressable under shards[].
        assert "replay" not in snapshot.spans
        assert len(snapshot.shards) == 1
        shard = snapshot.shards[0]
        assert shard["shard"] == 1
        assert [span["path"] for span in shard["spans"]] == ["replay"]

    def test_add_shard_orders_by_index(self):
        parent = MetricsRecorder()
        for index in (2, 0, 1):
            worker = MetricsRecorder()
            worker.count("trace.events.routed", index)
            parent.add_shard(index, worker.snapshot().to_dict())
        assert [s["shard"] for s in parent.snapshot().shards] == [0, 1, 2]


# -- registry and shard stability -------------------------------------------


class TestMetricNameRegistry:
    def test_shard_sensitive_names_are_registered(self):
        assert SHARD_SENSITIVE_METRICS <= set(METRIC_NAMES)

    def test_comparable_counters_drops_unstable_names(self):
        counters = {
            "trace.events.routed": 10,
            "engine.unique": 4,
            "engine.hops": 9,
            "sharded.workers": 4,
            "worker.elapsed_s": 0.1,
            "report.violations": 1,
        }
        assert comparable_counters(counters) == {
            "trace.events.routed": 10,
            "report.violations": 1,
        }

    def test_checker_metrics_use_registered_names(self):
        from repro.checker import make_checker

        program = counter_program()
        for name in ("optimized", "basic", "velodrome", "racedetector"):
            result = run_program(
                program, observers=[make_checker(name)], record_trace=False
            )
            checker = result.observers[0]
            emitted = set(checker.metrics())
            assert emitted <= set(METRIC_NAMES), (name, emitted - set(METRIC_NAMES))


class TestEngineStatsUnification:
    def test_both_engines_expose_engine_stats(self):
        program = counter_program()
        result = run_program(program, observers=[OptAtomicityChecker()])
        trace = replay_trace_source(result)
        for engine_cls in (LCAEngine, LabelEngine):
            engine = engine_cls(trace.dpst)
            steps = [
                node_id
                for node_id in range(len(trace.dpst))
                if trace.dpst.is_step(node_id)
            ]
            if len(steps) >= 2:
                engine.parallel(steps[0], steps[1])
            assert isinstance(engine.stats, EngineStats)
            metrics = engine.stats.as_metrics()
            assert set(metrics) == {
                "engine.queries",
                "engine.unique",
                "engine.hops",
            }

    def test_flush_engine_stats_counts(self):
        program = counter_program()
        trace = replay_trace_source(run_program(program, observers=[]))
        engine = LCAEngine(trace.dpst)
        steps = [
            node_id
            for node_id in range(len(trace.dpst))
            if trace.dpst.is_step(node_id)
        ]
        engine.parallel(steps[0], steps[1])
        recorder = MetricsRecorder()
        flush_engine_stats(recorder, engine)
        assert recorder.counter_value("engine.queries") >= 1


def replay_trace_source(result):
    """The recorded trace of a run_program result (records lazily)."""
    if result.trace is not None:
        return result.trace
    rerun = run_program(result.program, record_trace=True)
    return rerun.trace


# -- pipeline integration ----------------------------------------------------


class TestReplayIntegration:
    def test_replay_with_recorder_counts_and_spans(self):
        program = counter_program()
        result = run_program(program, record_trace=True)
        recorder = MetricsRecorder()
        report = CheckSession(
            result.trace, checker=OptAtomicityChecker(), recorder=recorder
        ).check()
        assert len(report) >= 1
        snapshot = recorder.snapshot()
        routed = snapshot.counters["trace.events.routed"]
        assert routed == len(list(result.trace.memory_events()))
        assert snapshot.counters["checker.accesses_checked"] == routed
        # The replay runs inside the session's check.
        assert "check/replay" in snapshot.spans
        assert snapshot.counters["engine.queries"] >= 1

    def test_replay_without_recorder_is_unchanged(self):
        program = counter_program()
        result = run_program(program, record_trace=True)
        plain = CheckSession(
            result.trace, checker=OptAtomicityChecker()
        ).check()
        recorded = CheckSession(
            result.trace,
            checker=OptAtomicityChecker(),
            recorder=MetricsRecorder(),
        ).check()
        assert {v.key for v in plain} == {v.key for v in recorded}


class TestSessionIntegration:
    def test_metrics_none_by_default(self):
        session = CheckSession(counter_program())
        session.check("optimized")
        assert session.metrics is None

    def test_session_records_spans_and_counters(self):
        recorder = MetricsRecorder()
        session = CheckSession(counter_program(), recorder=recorder)
        session.check("optimized")
        snapshot = session.metrics
        assert snapshot is not None
        assert snapshot.counters["report.violations"] >= 1
        assert snapshot.counters["runtime.tasks"] >= 3
        assert snapshot.gauges["dpst.nodes"] >= 1
        # The program records lazily inside the first check() call, so the
        # record phase nests under it.
        assert "check" in snapshot.spans
        assert "check/record" in snapshot.spans
        assert "check/replay" in snapshot.spans

    def test_run_result_metrics_match_recorder_counters(self):
        recorder = MetricsRecorder()
        session = CheckSession(counter_program(), recorder=recorder)
        session.check("optimized")
        run_metrics = session.run_result.metrics
        assert set(run_metrics) <= set(METRIC_NAMES)
        snapshot = session.metrics
        for name in ("runtime.tasks", "runtime.memory_events"):
            assert snapshot.counters[name] == run_metrics[name]

    def test_run_result_checker_metrics(self):
        program = counter_program()
        checker = OptAtomicityChecker()
        result = run_program(program, observers=[checker])
        per_checker = result.checker_metrics
        assert "optimized" in per_checker  # keyed like RunResult.reports
        assert per_checker["optimized"]["report.violations"] >= 1
        assert set(result.metrics) <= set(METRIC_NAMES)


class TestDeprecation:
    def test_session_path_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session = CheckSession(counter_program())
            session.check("optimized")


# -- CLI surface -------------------------------------------------------------


class TestCLI:
    def write_trace(self, tmp_path):
        from repro.trace.serialize import dump_trace_jsonl

        result = run_program(counter_program(), record_trace=True)
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(result.trace, path)
        return path

    def test_check_trace_metrics_flag(self, tmp_path, capsys):
        from repro.cli import main

        trace = self.write_trace(tmp_path)
        out = str(tmp_path / "m.json")
        code = main(["check-trace", trace, "--metrics", out])
        assert code == 1  # violation found
        with open(out, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert is_metrics_dict(data)
        assert data["counters"]["report.violations"] >= 1
        assert any(span["path"] == "check" for span in data["spans"])
        capsys.readouterr()

    def test_check_trace_metrics_sharded_has_shards(self, tmp_path, capsys):
        from repro.cli import main

        trace = self.write_trace(tmp_path)
        out = str(tmp_path / "m4.json")
        code = main(["check-trace", trace, "--jobs", "4", "--metrics", out])
        assert code == 1
        with open(out, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data.get("shards"), "sharded --metrics must keep per-shard entries"
        for shard in data["shards"]:
            assert "shard" in shard and "spans" in shard
        capsys.readouterr()

    def test_stats_renders_metrics_file(self, tmp_path, capsys):
        from repro.cli import main

        trace = self.write_trace(tmp_path)
        out = str(tmp_path / "m.json")
        main(["check-trace", trace, "--metrics", out])
        capsys.readouterr()
        assert main(["stats", out]) == 0
        rendered = capsys.readouterr().out
        assert "report.violations" in rendered
        assert "check" in rendered

    def test_stats_refuses_a_damaged_snapshot(self, tmp_path):
        """A file stamped with the metrics schema whose values no merge
        can read is a one-line error (exit 2 from ``python -m repro``),
        not a ``ValueError`` traceback."""
        from repro.cli import main

        out = str(tmp_path / "m.json")
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"schema": METRICS_SCHEMA, "counters": "garbage"}, handle)
        with pytest.raises(SystemExit, match="bad metrics snapshot in .*m.json"):
            main(["stats", out])

    def test_stats_falls_back_to_trace_files(self, tmp_path, capsys):
        from repro.cli import main

        trace = self.write_trace(tmp_path)
        assert main(["stats", trace]) == 0
        rendered = capsys.readouterr().out
        assert "events" in rendered
