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

def build_buggy():
    return TaskProgram(buggy)

def racy_abcd(ctx):
    def rmw(inner, location):
        value = inner.read(location)
        inner.write(location, value + 1)
    for location in "ABCD":
        ctx.spawn(rmw, location)
        ctx.spawn(rmw, location)
    ctx.sync()

def build_racy_abcd():
    return TaskProgram(racy_abcd, initial_memory=dict.fromkeys("ABCD", 0))

def deep_chain(ctx, depth=0):
    if depth < 10_000:
        ctx.spawn(deep_chain, depth + 1)
        ctx.sync()
    ctx.write("leaf", depth)
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


class TestTargetLoader:
    """Every MODULE:FUNC command resolves its target through one loader."""

    @pytest.mark.parametrize("command", ["check", "dpst", "compare", "coverage", "lint"])
    def test_builder_and_body_agree(self, command, target_module, capsys):
        main([command, f"{target_module}:buggy"])
        body = capsys.readouterr().out
        main([command, f"{target_module}:build_buggy"])
        built = capsys.readouterr().out
        assert built.replace("build_buggy", "buggy") == body

    def test_record_builder_writes_same_trace(self, target_module, tmp_path, capsys):
        body, built = str(tmp_path / "body.trc"), str(tmp_path / "built.trc")
        assert main(["record", f"{target_module}:buggy", "-o", body]) == 0
        assert main(["record", f"{target_module}:build_buggy", "-o", built]) == 0
        with open(body, "rb") as first, open(built, "rb") as second:
            assert first.read() == second.read()


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
        code = main(["check-trace", trace_file])
        out = capsys.readouterr().out
        assert code == 1
        assert "Atomicity violation" in out

    def test_replay_with_velodrome(self, target_module, tmp_path, capsys):
        trace_file = str(tmp_path / "t.json")
        main(["record", f"{target_module}:buggy", "-o", trace_file])
        capsys.readouterr()
        code = main(["check-trace", trace_file, "--checker", "velodrome"])
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


class TestCheckTraceFaultTolerance:
    @pytest.fixture
    def trace_file(self, target_module, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        main(["record", f"{target_module}:buggy", "-o", path])
        capsys.readouterr()
        return path

    def test_checkpoint_then_resume(
        self, trace_file, tmp_path, monkeypatch, capsys
    ):
        """An interrupted ``--jobs 2 --cache-dir`` run keeps the shard that
        finished; re-running it redoes the other and prints the report of
        a fresh run."""
        import glob
        import json

        from repro.checker.supervisor import FAULT_KILL_ENV
        from repro.errors import CheckerError

        rc = str(tmp_path / "rc")
        argv = ["check-trace", trace_file, "--jobs", "2", "--retries", "4"]
        monkeypatch.setenv(FAULT_KILL_ENV, "0@*")
        with pytest.raises(CheckerError, match="shard 0 failed"):
            main([*argv, "--cache-dir", rc,
                  "--metrics", str(tmp_path / "interrupted.json")])
        monkeypatch.delenv(FAULT_KILL_ENV)
        (entry,) = glob.glob(os.path.join(rc, "*", "*.json"))
        assert entry.endswith(".2-1.json")
        metrics = str(tmp_path / "m.json")
        assert main([*argv, "--cache-dir", rc, "--metrics", metrics]) == 1
        resumed = capsys.readouterr().out
        assert main(argv) == 1
        fresh = capsys.readouterr().out
        assert [
            line for line in resumed.splitlines()
            if not line.startswith(("result cache:", "metrics written"))
        ] == fresh.splitlines()
        with open(metrics, "r", encoding="utf-8") as handle:
            counters = json.load(handle)["counters"]
        assert counters["sharded.resumed_shards"] == 1
        assert counters["sharded.workers"] == 1

    def test_damaged_shard_metrics_resume_recomputes_the_shard(
        self, trace_file, tmp_path, capsys
    ):
        """A ``--metrics`` resume past a shard entry whose stored metrics
        are damaged recomputes that shard: the status and report of a
        fresh run, not a ``ValueError`` traceback."""
        import glob
        import json

        rc = str(tmp_path / "rc")
        argv = ["check-trace", trace_file, "--jobs", "2"]
        assert main(argv) == 1
        fresh = capsys.readouterr().out
        first = str(tmp_path / "first.json")
        assert main([*argv, "--cache-dir", rc, "--metrics", first]) == 1
        capsys.readouterr()
        for path in glob.glob(os.path.join(rc, "*", "*.json")):
            if path.endswith(".2-1.json"):
                with open(path, "r", encoding="utf-8") as handle:
                    entry = json.load(handle)
                entry["meta"]["metrics"] = {"counters": "garbage"}
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle)
            elif not path.endswith(".2-0.json"):
                os.unlink(path)  # the whole entry an interrupt never stored
        metrics = str(tmp_path / "m.json")
        assert main([*argv, "--cache-dir", rc, "--metrics", metrics]) == 1
        resumed = capsys.readouterr().out
        assert [
            line for line in resumed.splitlines()
            if not line.startswith(("result cache:", "metrics written"))
        ] == fresh.splitlines()
        with open(metrics, "r", encoding="utf-8") as handle:
            counters = json.load(handle)["counters"]
        assert counters["sharded.resumed_shards"] == 1
        assert counters["sharded.workers"] == 1

    def test_unobserved_shard_entries_resume_with_fresh_counters(
        self, target_module, tmp_path, capsys
    ):
        """Shard entries stored without ``--metrics`` hold no counters: a
        ``--metrics`` resume recomputes those shards, so its file counts
        what a fresh run counts (it used to count half the violations and
        accesses), and the next resume serves them with their metrics."""
        import glob
        import json

        trace = str(tmp_path / "t.trc")
        main(["record", f"{target_module}:build_racy_abcd", "-o", trace,
              "--format", "columnar"])
        capsys.readouterr()
        argv = ["check-trace", trace, "--jobs", "2"]

        def counters(path):
            with open(path, "r", encoding="utf-8") as handle:
                found = json.load(handle)["counters"]
            return {
                name: value for name, value in found.items()
                if not name.startswith("cache.") and name not in (
                    "sharded.workers", "sharded.heartbeats",
                    "sharded.resumed_shards",
                )
            }, found.get("sharded.resumed_shards", 0)

        def report_lines(out):
            return [
                line for line in out.splitlines()
                if not line.startswith(("result cache:", "metrics written"))
            ]

        assert main([*argv, "--metrics", str(tmp_path / "f.json")]) == 1
        fresh = capsys.readouterr().out
        expected, _ = counters(str(tmp_path / "f.json"))
        assert expected["report.violations"] == 4
        assert expected["sharded.shards_nonempty"] == 2
        rc = str(tmp_path / "rc")
        assert main([*argv, "--cache-dir", rc]) == 1
        capsys.readouterr()
        for resumed_shards in (0, 1):
            for path in glob.glob(os.path.join(rc, "*", "*.json")):
                if not path.endswith(".2-0.json"):
                    os.unlink(path)  # the whole entry and shard 1's
            metrics = str(tmp_path / "m.json")
            assert main([*argv, "--cache-dir", rc, "--metrics", metrics]) == 1
            resumed = capsys.readouterr().out
            assert report_lines(resumed) == report_lines(fresh)
            assert counters(metrics) == (expected, resumed_shards)

    def test_checkpoint_flags_are_refused(self, trace_file, capsys):
        for flags in (["--checkpoint", "ck"], ["--resume"]):
            with pytest.raises(SystemExit) as refused:
                main(["check-trace", trace_file, *flags])
            assert refused.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_streaming_flags_are_refused(self, trace_file, capsys):
        """Every check is bounded, so there is no streaming mode to ask
        for: argparse refuses the flags (status 2)."""
        for flags in (["--streaming"], ["--window", "8"]):
            with pytest.raises(SystemExit) as refused:
                main(["check-trace", trace_file, *flags])
            assert refused.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

    @staticmethod
    def subcommands():
        import argparse

        from repro.cli import build_parser

        return next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices

    def test_fifteen_subcommands_and_no_replay(self):
        commands = self.subcommands()
        assert len(commands) == 15, sorted(commands)
        assert "replay" not in commands
        with pytest.raises(SystemExit) as refused:
            main(["replay", "t.jsonl"])
        assert refused.value.code == 2

    def test_checker_choices_track_registry(self):
        from repro.checker import CHECKER_FACTORIES

        expected = tuple(CHECKER_FACTORIES)
        with_checker = []
        for name, sub in self.subcommands().items():
            for action in sub._actions:
                if "--checker" in action.option_strings:
                    assert tuple(action.choices) == expected, name
                    with_checker.append(name)
        assert sorted(with_checker) == ["check", "check-trace", "suite", "workload"]

    @pytest.mark.parametrize("command", ["record", "coverage"])
    @pytest.mark.parametrize(
        "flag", [["--checker", "basic"], ["--engine", "lca"], ["--dpst-layout", "array"]]
    )
    def test_dead_flags_rejected(self, command, flag, target_module, tmp_path):
        argv = [command, f"{target_module}:buggy", *flag]
        if command == "record":
            argv += ["-o", str(tmp_path / "t.jsonl")]
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2


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

    @pytest.mark.parametrize(
        "cache", [[], ["--cache-dir", "rc"]], ids=["no-cache", "cache"]
    )
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_path_that_is_not_a_file_exits_2(self, tmp_path, kind, cache):
        """A cache lookup digests the file and opens it only on a miss; a
        path that is not a file still fails first, with one line."""
        if kind == "directory":
            (tmp_path / "t.trc").mkdir()
        completed = self.run("check-trace", "t.trc", *cache, cwd=tmp_path)
        self.assert_error_names(completed, "t.trc")
        assert completed.stderr == "repro: error: no trace file at 't.trc'\n"

    def test_refused_option_exits_2(self, tmp_path):
        completed = self.run(
            "lint", "--spec", "s.json", "--update-baseline", cwd=tmp_path
        )
        self.assert_error_names(completed, "--baseline")

    def test_other_trace_in_the_same_cache_dir_exits_0(self, tmp_path):
        """A shard stored for one trace answered a check of another: the
        clean trace printed the buggy one's triple (exit 1)."""
        (tmp_path / "cli_targets.py").write_text(PROGRAMS_SOURCE)
        for name in ("buggy", "clean"):
            self.run(
                "record", f"cli_targets:{name}", "-o", f"{name}.jsonl",
                cwd=tmp_path,
            )
        argv = ["--jobs", "2", "--cache-dir", "rc"]
        first = self.run("check-trace", "buggy.jsonl", *argv, cwd=tmp_path)
        assert first.returncode == 1, first.stderr
        second = self.run("check-trace", "clean.jsonl", *argv, cwd=tmp_path)
        assert second.returncode == 0, second.stdout
        assert second.stdout.startswith("no violations\n")

    def test_strict_after_lenient_in_the_same_cache_dir_exits_2(
        self, tmp_path
    ):
        """A lenient run's shards answered a later strict check of the same
        damaged file, which on its own refuses the file."""
        (tmp_path / "cli_targets.py").write_text(PROGRAMS_SOURCE)
        self.run("record", "cli_targets:buggy", "-o", "t.jsonl", cwd=tmp_path)
        with open(tmp_path / "t.jsonl", "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        argv = ["--jobs", "2", "--cache-dir", "rc"]
        lenient = self.run(
            "check-trace", "t.jsonl", "--lenient", *argv, cwd=tmp_path
        )
        assert lenient.returncode == 1, lenient.stderr
        strict = self.run("check-trace", "t.jsonl", *argv, cwd=tmp_path)
        self.assert_error_names(strict, "t.jsonl")

    def test_unimportable_module_exits_2(self, tmp_path):
        completed = self.run("check", "no_such_mod:main", cwd=tmp_path)
        self.assert_error_names(completed, "no_such_mod")

    def test_missing_attribute_exits_2(self, tmp_path):
        (tmp_path / "target_mod.py").write_text("def main(ctx):\n    pass\n")
        completed = self.run("dpst", "target_mod:nope", cwd=tmp_path)
        self.assert_error_names(completed, "'nope'")

    def test_builder_target_checks(self, tmp_path):
        (tmp_path / "cli_targets.py").write_text(PROGRAMS_SOURCE)
        completed = self.run("check", "cli_targets:build_buggy", cwd=tmp_path)
        assert completed.returncode == 1, completed.stderr
        assert "Atomicity violation" in completed.stdout

    def test_missing_spec_exits_2(self, tmp_path):
        completed = self.run("lint", "--spec", "missing.json", cwd=tmp_path)
        self.assert_error_names(completed, "missing.json")

    def test_non_json_spec_exits_2(self, tmp_path):
        (tmp_path / "spec.json").write_text("not json")
        completed = self.run("lint", "--spec", "spec.json", cwd=tmp_path)
        self.assert_error_names(completed, "spec.json")

    def test_deep_spawn_chain_exits_2(self, tmp_path):
        (tmp_path / "cli_targets.py").write_text(PROGRAMS_SOURCE)
        completed = self.run("check", "cli_targets:deep_chain", cwd=tmp_path)
        self.assert_error_names(completed, "spawn depth")

    def test_compare_long_trace_explores_without_traceback(self, tmp_path):
        """Velodrome + explorer schedules a 1,000+-event trace: its
        search must not recurse once per event."""
        completed = self.run(
            "compare", "repro.workloads.kmeans:build", cwd=tmp_path
        )
        assert completed.returncode in (0, 1, 2), completed.stderr
        assert "Traceback" not in completed.stderr
        assert "velodrome + explorer" in completed.stdout

    def test_violating_trace_exits_1(self, target_module, tmp_path, capsys):
        main(["record", f"{target_module}:buggy", "-o", str(tmp_path / "t.trc")])
        capsys.readouterr()
        completed = self.run("check-trace", "t.trc", cwd=tmp_path)
        assert completed.returncode == 1, completed.stderr
        assert "Atomicity violation" in completed.stdout
        assert not completed.stderr


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
