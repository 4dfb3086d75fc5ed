"""CLI: every subcommand exercised in-process.

A small importable module of task bodies is materialized under ``tmp_path``
and put on ``sys.path`` so the MODULE:FUNC commands have a target.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import TraceError

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

PROGRAMS_SOURCE = '''
"""CLI test target programs."""

from repro.runtime import TaskProgram

def buggy(ctx):
    def rmw(inner):
        value = inner.read("X")
        inner.write("X", value + 1)
    ctx.spawn(rmw)
    ctx.spawn(rmw)
    ctx.sync()

def clean(ctx):
    def writer(inner, i):
        inner.write(("out", i), i)
    for i in range(3):
        ctx.spawn(writer, i)
    ctx.sync()

def flagged(ctx):
    if ctx.read("flag"):
        ctx.write("rare", 1)

def build_flagged():
    return TaskProgram(flagged, initial_memory={"flag": 1})
'''


@pytest.fixture
def target_module(tmp_path, monkeypatch):
    path = tmp_path / "cli_targets.py"
    path.write_text(PROGRAMS_SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    sys.modules.pop("cli_targets", None)
    yield "cli_targets"
    sys.modules.pop("cli_targets", None)


class TestCheck:
    def test_buggy_program_exit_1(self, target_module, capsys):
        code = main(["check", f"{target_module}:buggy"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Atomicity violation" in out
        assert "'X'" in out

    def test_clean_program_exit_0(self, target_module, capsys):
        code = main(["check", f"{target_module}:clean"])
        assert code == 0
        assert "no violations" in capsys.readouterr().out

    def test_stats_flag(self, target_module, capsys):
        main(["check", f"{target_module}:buggy", "--stats"])
        out = capsys.readouterr().out
        assert "tasks=" in out and "lca_queries=" in out

    def test_other_checkers(self, target_module, capsys):
        assert main(["check", f"{target_module}:buggy", "--checker", "velodrome"]) == 0
        assert main(["check", f"{target_module}:buggy", "--checker", "basic"]) == 1

    def test_executor_options(self, target_module):
        for executor in ("serial", "help-first", "random", "worksteal"):
            assert (
                main(
                    ["check", f"{target_module}:buggy", "--executor", executor]
                )
                == 1
            )

    def test_bad_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "no_colon_here"])

    def test_missing_function_rejected(self, target_module):
        with pytest.raises(SystemExit):
            main(["check", f"{target_module}:nope"])


class TestSuite:
    def test_full_suite_passes(self, capsys):
        code = main(["suite"])
        out = capsys.readouterr().out
        assert code == 0
        assert "36 case(s), 0 mismatch(es)" in out

    def test_category_filter(self, capsys):
        code = main(["suite", "--category", "locks"])
        out = capsys.readouterr().out
        assert code == 0
        assert "6 case(s)" in out


class TestWorkload:
    def test_run_sort(self, capsys):
        code = main(["workload", "sort", "--scale", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload sort" in out
        assert "no violations" in out

    def test_unknown_workload(self):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            main(["workload", "quake"])


class TestDpst:
    def test_prints_tree(self, target_module, capsys):
        code = main(["dpst", f"{target_module}:buggy"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("F0")
        assert "A" in out and "S" in out


class TestRecordReplay:
    def test_roundtrip(self, target_module, tmp_path, capsys):
        trace_file = str(tmp_path / "t.json")
        assert main(["record", f"{target_module}:buggy", "-o", trace_file]) == 0
        out = capsys.readouterr().out
        assert "recorded" in out
        code = main(["replay", trace_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "Atomicity violation" in out

    def test_replay_with_velodrome(self, target_module, tmp_path, capsys):
        trace_file = str(tmp_path / "t.json")
        main(["record", f"{target_module}:buggy", "-o", trace_file])
        capsys.readouterr()
        code = main(["replay", trace_file, "--checker", "velodrome"])
        assert code == 0  # serial trace: no cycle

    def test_record_jsonl_by_extension(self, target_module, tmp_path, capsys):
        from repro.trace.serialize import is_jsonl_trace

        trace_file = str(tmp_path / "t.jsonl")
        assert main(["record", f"{target_module}:buggy", "-o", trace_file]) == 0
        assert is_jsonl_trace(trace_file)

    def test_record_format_flag(self, target_module, tmp_path, capsys):
        from repro.trace.serialize import is_jsonl_trace

        trace_file = str(tmp_path / "t.dat")
        code = main(
            ["record", f"{target_module}:buggy", "-o", trace_file,
             "--format", "jsonl"]
        )
        assert code == 0
        assert is_jsonl_trace(trace_file)


class TestCheckTrace:
    @pytest.fixture
    def trace_file(self, target_module, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        main(["record", f"{target_module}:buggy", "-o", path])
        capsys.readouterr()
        return path

    def test_in_process(self, trace_file, capsys):
        code = main(["check-trace", trace_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "Atomicity violation" in out and "'X'" in out

    def test_sharded(self, trace_file, capsys):
        code = main(["check-trace", trace_file, "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Atomicity violation" in out

    def test_jobs_zero_means_per_cpu(self, trace_file, capsys):
        assert main(["check-trace", trace_file, "--jobs", "0"]) == 1

    def test_engine_option(self, trace_file, capsys):
        assert main(["check-trace", trace_file, "--engine", "labels"]) == 1

    def test_clean_trace_exit_0(self, target_module, tmp_path, capsys):
        path = str(tmp_path / "clean.jsonl")
        main(["record", f"{target_module}:clean", "-o", path])
        capsys.readouterr()
        code = main(["check-trace", path, "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no violations" in out

    def test_v1_json_trace_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"version": 1, "events": [], "dpst": null}')
        with pytest.raises(TraceError, match="t.json"):
            main(["check-trace", str(path), "--jobs", "2"])

    def test_record_json_extension_writes_jsonl(self, target_module, tmp_path, capsys):
        from repro.trace.serialize import is_jsonl_trace

        path = str(tmp_path / "t.json")
        main(["record", f"{target_module}:buggy", "-o", path])
        capsys.readouterr()
        assert is_jsonl_trace(path)
        assert main(["check-trace", path, "--jobs", "2"]) == 1

    def test_regiontrack_checker(self, trace_file, capsys):
        code = main(["check-trace", trace_file, "--checker", "regiontrack"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Atomicity violation" in out and "'X'" in out


class TestCheckTraceStreaming:
    @pytest.fixture
    def trace_file(self, target_module, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        main(["record", f"{target_module}:buggy", "-o", path])
        capsys.readouterr()
        return path

    def test_streaming_matches_offline_output(self, trace_file, capsys):
        offline_code = main(["check-trace", trace_file])
        offline = capsys.readouterr().out
        code = main(["check-trace", trace_file, "--streaming", "--window", "8"])
        out = capsys.readouterr().out
        assert code == offline_code == 1
        report_lines = [
            line for line in out.splitlines() if not line.startswith("streaming:")
        ]
        assert "\n".join(report_lines) + "\n" == offline

    def test_status_line_shows_window_and_counters(self, trace_file, capsys):
        main(["check-trace", trace_file, "--streaming", "--window", "2"])
        out = capsys.readouterr().out
        assert "streaming: window=2" in out
        assert "event(s)" in out and "sweep(s)" in out

    def test_default_and_unbounded_windows(self, trace_file, capsys):
        main(["check-trace", trace_file, "--streaming"])
        assert "streaming: window=4096" in capsys.readouterr().out
        main(["check-trace", trace_file, "--streaming", "--window", "0"])
        assert "streaming: window=unbounded" in capsys.readouterr().out

    def test_streaming_sharded(self, trace_file, capsys):
        assert main(
            ["check-trace", trace_file, "--streaming", "--window", "1",
             "--jobs", "2"]
        ) == 1

    def test_window_requires_streaming(self, trace_file, capsys):
        with pytest.raises(SystemExit, match="--window needs --streaming"):
            main(["check-trace", trace_file, "--window", "8"])

    def test_streaming_velodrome_refused(self, trace_file, capsys):
        from repro.errors import CheckerError

        with pytest.raises(CheckerError, match="cannot stream"):
            main(["check-trace", trace_file, "--streaming",
                  "--checker", "velodrome"])


class TestCheckTraceFaultTolerance:
    @pytest.fixture
    def trace_file(self, target_module, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        main(["record", f"{target_module}:buggy", "-o", path])
        capsys.readouterr()
        return path

    def test_checkpoint_then_resume(self, trace_file, tmp_path, capsys):
        import os

        ck = str(tmp_path / "ck")
        code = main(
            ["check-trace", trace_file, "--jobs", "2", "--checkpoint", ck]
        )
        fresh = capsys.readouterr().out
        assert code == 1
        os.unlink(os.path.join(ck, "shard-00000.json"))
        code = main(
            [
                "check-trace", trace_file, "--jobs", "2",
                "--checkpoint", ck, "--resume",
            ]
        )
        assert code == 1
        assert capsys.readouterr().out == fresh

    def test_resume_requires_checkpoint(self, trace_file):
        with pytest.raises(SystemExit, match="--checkpoint"):
            main(["check-trace", trace_file, "--resume"])

    def test_kill_injection_still_completes(
        self, trace_file, monkeypatch, capsys
    ):
        from repro.checker.supervisor import FAULT_KILL_ENV

        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        code = main(
            ["check-trace", trace_file, "--jobs", "2",
             "--on-shard-failure", "retry"]
        )
        assert code == 1
        assert "Atomicity violation" in capsys.readouterr().out

    def test_lenient_flag_prints_skip_count(self, trace_file, capsys):
        with open(trace_file, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        code = main(["check-trace", trace_file, "--lenient"])
        out = capsys.readouterr().out
        assert code == 1
        assert "skipped 1 undecodable trace line(s)" in out

    def test_strict_default_fails_on_garbage(self, trace_file):
        with open(trace_file, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(Exception):
            main(["check-trace", trace_file])

    def test_shard_timeout_and_retries_flags_parse(self, trace_file, capsys):
        code = main(
            ["check-trace", trace_file, "--jobs", "2", "--retries", "1",
             "--shard-timeout", "30"]
        )
        assert code == 1

    def test_metrics_include_fault_counters(
        self, trace_file, tmp_path, monkeypatch, capsys
    ):
        import json

        from repro.checker.supervisor import FAULT_KILL_ENV

        out_path = str(tmp_path / "metrics.json")
        monkeypatch.setenv(FAULT_KILL_ENV, "0@0")
        main(
            ["check-trace", trace_file, "--jobs", "2",
             "--metrics", out_path]
        )
        capsys.readouterr()
        with open(out_path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["counters"]["sharded.shard_failures"] == 1
        assert data["counters"]["sharded.retries"] == 1
        # And `repro stats` renders them.
        code = main(["stats", out_path])
        rendered = capsys.readouterr().out
        assert code == 0
        assert "sharded.shard_failures" in rendered
        assert "sharded.retries" in rendered


class TestCoverage:
    def test_clean_coverage_exit_0(self, target_module, capsys):
        code = main(["coverage", f"{target_module}:buggy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "STANDS" in out

    def test_output_lists_patterns(self, target_module, capsys):
        main(["coverage", f"{target_module}:clean"])
        out = capsys.readouterr().out
        assert "static access pattern" in out

    def test_builder_target_runs_its_program(self, target_module, capsys):
        """A zero-argument builder is accepted as by `repro lint`, and its
        program's initial memory drives the run: flag=1 takes the branch,
        so W('rare') is covered."""
        code = main(["coverage", f"{target_module}:build_flagged"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "W('rare')" in out
        assert "single-trace completeness guarantee STANDS" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for command in ("check", "suite", "workload", "table1", "fig13"):
            assert command in out


class TestCompare:
    def test_matrix_covers_all_analyses(self, target_module, capsys):
        code = main(["compare", f"{target_module}:buggy"])
        out = capsys.readouterr().out
        assert code == 1
        for label in (
            "optimized (paper)",
            "basic (reference)",
            "velodrome (this trace)",
            "velodrome + explorer",
            "race detector",
        ):
            assert label in out
        assert "schedules" in out  # explorer note column

    def test_clean_program_exit_0(self, target_module, capsys):
        code = main(["compare", f"{target_module}:clean"])
        assert code == 0


class TestLint:
    def test_buggy_flagged(self, target_module, capsys):
        code = main(["lint", f"{target_module}:buggy"])
        out = capsys.readouterr().out
        assert code == 1
        assert "SAV001" in out and "'X'" in out

    def test_clean_has_no_errors(self, target_module, capsys):
        code = main(["lint", f"{target_module}:clean"])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_json_output(self, target_module, capsys):
        import json

        code = main(["lint", f"{target_module}:buggy", "--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1
        assert data["counts"]["errors"] >= 1
        assert data["candidates"][0]["code"] == "SAV001"

    def test_spec_file(self, tmp_path, capsys):
        import json

        spec = [
            "task",
            [["finish", [
                ["spawn", [["access", "c", "read"], ["access", "c", "write"]]],
                ["spawn", [["access", "c", "write"]]],
            ]]],
        ]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["lint", "--spec", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "SAV001" in out

    def test_needs_exactly_one_target(self):
        with pytest.raises(SystemExit):
            main(["lint"])


class TestLintFailOn:
    def test_default_gate_is_error(self, target_module):
        # ``clean`` carries SAV102 warnings (dynamic tuple index) but no
        # errors: the default --fail-on error passes it.
        assert main(["lint", f"{target_module}:clean"]) == 0
        assert main(["lint", f"{target_module}:buggy"]) == 1

    def test_warning_gate(self, target_module, capsys):
        code = main(["lint", f"{target_module}:clean", "--fail-on", "warning"])
        out = capsys.readouterr().out
        assert "SAV102" in out
        assert code == 1

    def test_never_gate(self, target_module):
        assert main(["lint", f"{target_module}:buggy", "--fail-on", "never"]) == 0


class TestLintSarifFlag:
    def test_writes_valid_log(self, target_module, tmp_path, capsys):
        import json

        out_path = tmp_path / "lint.sarif"
        code = main(["lint", f"{target_module}:buggy", "--sarif", str(out_path)])
        assert code == 1
        assert f"SARIF log written to {out_path}" in capsys.readouterr().out
        log = json.loads(out_path.read_text())
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert any(r["ruleId"] == "SAV001" for r in run["results"])


class TestLintBaselineFlag:
    def test_update_then_compare(self, target_module, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        code = main(
            ["lint", f"{target_module}:buggy", "--baseline", baseline,
             "--update-baseline"]
        )
        assert code == 0
        assert "updated" in capsys.readouterr().out
        code = main(["lint", f"{target_module}:buggy", "--baseline", baseline])
        out = capsys.readouterr().out
        assert code == 0  # every finding is known: the gate passes
        assert "0 new" in out

    def test_new_findings_fail_the_gate(self, target_module, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        main(
            ["lint", f"{target_module}:clean", "--baseline", baseline,
             "--update-baseline"]
        )
        capsys.readouterr()
        code = main(["lint", f"{target_module}:buggy", "--baseline", baseline])
        out = capsys.readouterr().out
        assert code == 1
        assert "NEW SAV001" in out

    def test_missing_baseline_is_an_error(self, target_module, tmp_path):
        with pytest.raises(SystemExit, match="--update-baseline"):
            main(
                ["lint", f"{target_module}:buggy", "--baseline",
                 str(tmp_path / "missing.json")]
            )

    def test_update_requires_baseline_path(self, target_module):
        with pytest.raises(SystemExit, match="--update-baseline needs"):
            main(["lint", f"{target_module}:buggy", "--update-baseline"])


class TestExitStatus:
    """``python -m repro``: 0 clean, 1 violations, 2 errors -- an error
    is one stderr line, never a traceback."""

    def run(self, *argv, cwd):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC_DIR, env.get("PYTHONPATH")])
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
        )

    def assert_error_names(self, completed, path):
        assert completed.returncode == 2, completed.stderr
        assert "Traceback" not in completed.stderr
        lines = completed.stderr.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("repro: error: ")
        assert path in lines[0]

    def test_corrupt_jsonl_exits_2(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text("not json\n")
        completed = self.run("check-trace", "bad.jsonl", cwd=tmp_path)
        self.assert_error_names(completed, "bad.jsonl")

    def test_missing_path_exits_2(self, tmp_path):
        completed = self.run("check-trace", "missing.jsonl", cwd=tmp_path)
        self.assert_error_names(completed, "missing.jsonl")

    def test_refused_option_exits_2(self, tmp_path):
        completed = self.run("check-trace", "t.jsonl", "--resume", cwd=tmp_path)
        self.assert_error_names(completed, "--checkpoint")

    def test_violating_trace_exits_1(self, target_module, tmp_path, capsys):
        main(["record", f"{target_module}:buggy", "-o", str(tmp_path / "t.trc")])
        capsys.readouterr()
        completed = self.run("check-trace", "t.trc", cwd=tmp_path)
        assert completed.returncode == 1, completed.stderr
        assert "Atomicity violation" in completed.stdout
        assert not completed.stderr


class TestStatsHistograms:
    def test_stats_renders_histograms(self, tmp_path, capsys):
        # Regression: Histogram.mean is a property; the stats renderer
        # used to call it and crash on any snapshot with histograms.
        from repro.obs import MetricsRecorder

        recorder = MetricsRecorder()
        recorder.count("fuzz.runs", 3)
        recorder.observe("worker.elapsed_s", 0.25)
        recorder.observe("worker.elapsed_s", 0.75)
        path = tmp_path / "metrics.json"
        recorder.snapshot().dump(str(path))

        code = main(["stats", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "mean=0.5" in out


class TestFuzzCommand:
    def test_clean_campaign_exit_0(self, tmp_path, capsys):
        import json

        summary_file = tmp_path / "summary.json"
        metrics_file = tmp_path / "metrics.json"
        code = main([
            "fuzz", "--seed", "1", "--runs", "5", "--jobs", "1",
            "--json", str(summary_file), "--metrics", str(metrics_file),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all configurations agree" in out

        summary = json.loads(summary_file.read_text())
        assert summary["ok"] is True
        assert summary["runs"] == 5
        assert summary["events"] > 0
        assert summary["config"]["tasks"] == 6

        metrics = json.loads(metrics_file.read_text())
        assert metrics["counters"]["fuzz.runs"] == 5

    def test_generator_knobs_are_wired(self, tmp_path, capsys):
        import json

        summary_file = tmp_path / "summary.json"
        code = main([
            "fuzz", "--seed", "3", "--runs", "2", "--jobs", "1",
            "--tasks", "2", "--depth", "1", "--locations", "1",
            "--locks", "0", "--lock-density", "0.0",
            "--json", str(summary_file),
        ])
        capsys.readouterr()
        assert code == 0
        summary = json.loads(summary_file.read_text())
        assert summary["config"]["tasks"] == 2
        assert summary["config"]["locations"] == 1

    def test_disagreement_exits_1_and_writes_reproducer(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.fuzz.oracle import check_spec as real_check_spec
        from repro.report import ViolationReport
        from repro.runtime.observer import RuntimeObserver

        class Blind(RuntimeObserver):
            def __init__(self):
                self.report = ViolationReport()

            def on_memory(self, event):
                pass

        def sabotaged(spec, seed=None, jobs=4, recorder=None, **kwargs):
            return real_check_spec(
                spec, seed=seed, jobs=1, recorder=recorder,
                extra_checkers={"blind": Blind}, schedules=False,
            )

        import repro.fuzz.harness as harness

        monkeypatch.setattr(harness, "check_spec", sabotaged)
        report_dir = tmp_path / "reports"
        code = main([
            "fuzz", "--seed", "1", "--runs", "4", "--jobs", "1", "--shrink",
            "--report-dir", str(report_dir),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "disagreement" in out
        written = list(report_dir.glob("reproducer_seed_*.py"))
        assert written, "shrunk reproducers must land in --report-dir"
        assert "def test_fuzz_reproducer" in written[0].read_text()
