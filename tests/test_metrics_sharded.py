"""Sharding must not change what the pipeline counts.

Satellite guarantee of the observability layer: checker state is
per-location, so every registered counter the offline pipeline emits --
except the per-process memo-table statistics listed in
:data:`repro.obs.SHARD_SENSITIVE_METRICS` and the sharded driver's own
bookkeeping -- totals identically whether a trace is checked in-process
(``jobs=1``) or partitioned over four workers (``jobs=4``).  Verified
across the full 36-program suite, plus the end-to-end acceptance path:
``check-trace FILE --jobs 4 --metrics out.json`` writes per-shard spans
and merged counters that match a ``jobs=1`` run of the same file.
"""

import json

import pytest

from repro.checker import OptAtomicityChecker
from repro.obs import (
    METRIC_NAMES,
    MetricsRecorder,
    comparable_counters,
    is_metrics_dict,
)
from repro.runtime import run_program
from repro.session import CheckSession
from repro.suite import all_cases
from repro.trace.serialize import dump_trace_jsonl

CASES = all_cases()


def record(program):
    """One instrumented run yielding the recorded trace."""
    return run_program(
        program, observers=[OptAtomicityChecker()], record_trace=True
    ).trace


def sharded_counters(source, jobs, annotations=None):
    """Merged counter totals of one observed sharded run."""
    recorder = MetricsRecorder()
    CheckSession(
        source,
        checker="optimized",
        jobs=jobs,
        annotations=annotations,
        recorder=recorder,
    ).check()
    return recorder.snapshot().counters


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
class TestSuiteCounterStability:
    """jobs=4 merged totals equal jobs=1 on all 36 suite programs."""

    def test_jobs4_totals_match_jobs1(self, case):
        program = case.build()
        trace = record(program)
        single = sharded_counters(trace, 1, program.annotations)
        merged = sharded_counters(trace, 4, program.annotations)
        assert comparable_counters(merged) == comparable_counters(single), (
            f"{case.name}: sharding changed the counter totals"
        )
        # The merged run really did fan out and reach every event.
        assert merged["trace.events.routed"] == single["trace.events.routed"]
        assert set(single) <= set(METRIC_NAMES)


class TestAcceptancePath:
    """ISSUE acceptance: check-trace FILE --jobs 4 --metrics out.json."""

    def trace_file(self, tmp_path):
        # Reuse a suite case with cross-task conflicts on several
        # locations so four shards actually get populated.
        case = CASES[0]
        program = case.build()
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(record(program), path)
        return path

    def test_cli_metrics_match_jobs1(self, tmp_path, capsys):
        from repro.cli import main

        path = self.trace_file(tmp_path)
        out1 = str(tmp_path / "m1.json")
        out4 = str(tmp_path / "m4.json")
        main(["check-trace", path, "--jobs", "1", "--metrics", out1])
        main(["check-trace", path, "--jobs", "4", "--metrics", out4])
        capsys.readouterr()

        with open(out1, "r", encoding="utf-8") as handle:
            single = json.load(handle)
        with open(out4, "r", encoding="utf-8") as handle:
            merged = json.load(handle)
        assert is_metrics_dict(single) and is_metrics_dict(merged)

        # Per-shard spans are present in the sharded output...
        assert merged.get("shards")
        for shard in merged["shards"]:
            assert "shard" in shard
            assert any(
                span["path"] == "replay" for span in shard.get("spans", [])
            ), "each worker snapshot must carry its replay span"
        # ...and the merged counter totals equal the jobs=1 run.
        assert comparable_counters(merged["counters"]) == comparable_counters(
            single["counters"]
        )

    def test_file_streamed_equals_in_memory_totals(self, tmp_path):
        case = CASES[0]
        program = case.build()
        trace = record(program)
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(trace, path)
        from_memory = sharded_counters(trace, 4, program.annotations)
        from_file = sharded_counters(path, 4, program.annotations)
        assert comparable_counters(from_file) == comparable_counters(
            from_memory
        )
