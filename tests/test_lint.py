"""The ``repro lint`` pass: :mod:`repro.static.lint` /
:mod:`repro.static.diagnostics`, suppressions, SARIF and baselines."""

import pytest

from repro.report import READ, WRITE
from repro.runtime import TaskProgram
from repro.static import lint_function, lint_program, lint_spec
from repro.static.diagnostics import ERROR, RULES, WARNING

# -- module-level task bodies ------------------------------------------------


def _increment(ctx):
    value = ctx.read("counter")
    ctx.write("counter", value + 1)


def _lost_update(ctx):
    ctx.write("counter", 0)
    ctx.spawn(_increment)
    ctx.spawn(_increment)
    ctx.sync()


def _locked_increment(ctx):
    with ctx.lock("L"):
        value = ctx.read("counter")
        ctx.write("counter", value + 1)


def _locked_update(ctx):
    ctx.write("counter", 0)
    ctx.spawn(_locked_increment)
    ctx.spawn(_locked_increment)
    ctx.sync()


def _serial_only(ctx):
    ctx.write("y", 1)
    ctx.spawn(_reader)
    ctx.sync()
    ctx.write("y", 2)


def _reader(ctx):
    ctx.read("x")


def _dynamic_index(ctx):
    for i in range(3):
        ctx.spawn(lambda c, i=i: c.write(("cell", i), 1))
    ctx.sync()


def _shared_helper(ctx):
    value = ctx.read("shared")
    ctx.write("shared", value + 1)


def _task_via_helper(ctx):
    _shared_helper(ctx)


def _interprocedural_serial(ctx):
    ctx.write("shared", 0)
    ctx.spawn(_task_via_helper)
    ctx.sync()
    ctx.read("shared")


def _suppressed_nonconstant(ctx):
    for i in range(3):
        ctx.write(("cell", i), i)  # repro: ignore[SAV102]


def _blanket_suppressed(ctx):
    for i in range(3):
        ctx.write(("cell", i), i)  # repro: ignore


# -- the lint pass -----------------------------------------------------------


class TestLintCandidates:
    def test_lost_update_flagged_exactly(self):
        report = lint_function(_lost_update)
        assert report.has_errors
        codes = {c.code for c in report.candidates}
        assert codes == {"SAV001"}
        assert {c.location for c in report.candidates} == {"counter"}
        patterns = {c.pattern for c in report.candidates}
        assert patterns <= {"RWR", "RWW", "WRW", "WWR", "WWW"}

    def test_lock_protection_suppresses_candidates(self):
        report = lint_function(_locked_update)
        assert not report.candidates
        assert not report.has_errors

    def test_spec_front_end(self):
        spec = (
            "task",
            (
                ("finish", (
                    ("spawn", (
                        ("access", "c", READ),
                        ("access", "c", WRITE),
                    )),
                    ("spawn", (("access", "c", WRITE),)),
                )),
            ),
        )
        report = lint_spec(spec)
        assert report.has_errors
        assert any(c.exact for c in report.candidates)

    def test_serial_program_is_clean_and_provable(self):
        report = lint_function(_serial_only)
        assert not report.diagnostics
        assert report.skeleton.is_exact

    def test_imprecise_skeleton_disables_prefilter(self):
        report = lint_function(_dynamic_index)
        assert not report.skeleton.is_exact

    def test_report_dict_shape(self):
        data = lint_function(_lost_update).to_dict()
        assert data["counts"]["errors"] >= 1
        assert data["exact_skeleton"] is True
        assert data["candidates"]
        entry = data["candidates"][0]
        assert entry["code"] == "SAV001"
        assert all(code in RULES for d in data["diagnostics"]
                   for code in [d["code"]])

    def test_rule_catalog_is_complete(self):
        assert "SAV001" in RULES and "SAV002" in RULES
        severities = {severity for severity, _ in RULES.values()}
        assert severities <= {ERROR, WARNING, "info"}

    def test_lint_program_accepts_taskprogram(self):
        report = lint_program(TaskProgram(_lost_update, name="lost"))
        assert report.has_errors
        assert "lost" in report.target


class TestLintWorkloads:
    def test_buggy_workloads_have_candidates(self):
        from repro.workloads.buggy import build_swaptions_unlocked

        report = lint_program(build_swaptions_unlocked())
        assert report.has_errors
        assert {c.location for c in report.candidates if c.exact} == {
            ("sum",), ("sum2",)
        }

    def test_clean_workloads_have_no_errors(self):
        from repro.workloads import all_workloads

        for spec in all_workloads():
            report = lint_program(spec.build(spec.test_scale))
            assert not report.has_errors, (
                f"{spec.name}: {[d.describe() for d in report.errors]}"
            )


# -- interprocedural exactness (ISSUE acceptance scenario 1) -----------------


class TestInterprocedural:
    def test_spawned_helper_analyzes_exactly(self):
        """A spawned body calling a module-level helper: no SAV101."""
        report = lint_function(_interprocedural_serial)
        assert not any(d.code == "SAV101" for d in report.diagnostics), [
            d.describe() for d in report.diagnostics
        ]
        assert report.skeleton.is_exact
        assert {a.location for a in report.skeleton.accesses} == {"shared"}

    def test_callgraph_stats_surface(self):
        report = lint_function(_interprocedural_serial)
        stats = report.callgraph_stats()
        assert stats is not None
        assert stats["functions"] >= 3  # root + task + helper
        assert stats["unresolved_calls"] == 0
        assert report.to_dict()["callgraph"] == stats
        assert "call graph:" in report.describe()

# -- suppression comments ----------------------------------------------------


class TestSuppressions:
    def test_code_specific_suppression(self):
        report = lint_function(_suppressed_nonconstant)
        assert not any(d.code == "SAV102" for d in report.diagnostics)
        assert [d.code for d in report.suppressed] == ["SAV102"]
        assert report.to_dict()["counts"]["suppressed"] == 1
        assert "[suppressed]" in report.describe()

    def test_blanket_suppression(self):
        report = lint_function(_blanket_suppressed)
        assert not any(d.code == "SAV102" for d in report.diagnostics)
        assert [d.code for d in report.suppressed] == ["SAV102"]

    def test_suppression_does_not_unpoison(self):
        """Silencing the diagnostic must not make the skeleton exact:
        suppression is about reporting, the imprecision still stands."""
        report = lint_function(_suppressed_nonconstant)
        assert not report.skeleton.is_exact


# -- SARIF export ------------------------------------------------------------


class TestSarifExport:
    def test_log_shape(self):
        from repro.static import report_to_sarif

        log = report_to_sarif(lint_function(_lost_update))
        assert log["version"] == "2.1.0"
        assert "sarif-schema" in log["$schema"] or "sarif" in log["$schema"]
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert set(RULES) == rule_ids
        results = run["results"]
        assert results
        assert all(r["ruleId"] in rule_ids for r in results)
        assert {r["level"] for r in results} <= {"error", "warning", "note"}

    def test_results_carry_locations(self):
        from repro.static import report_to_sarif

        log = report_to_sarif(lint_function(_lost_update))
        result = log["runs"][0]["results"][0]
        locations = result["locations"]
        assert locations
        physical = locations[0].get("physicalLocation")
        assert physical is None or "artifactLocation" in physical

    def test_suppressed_results_marked_in_source(self):
        from repro.static import report_to_sarif

        log = report_to_sarif(lint_function(_suppressed_nonconstant))
        marked = [
            r for r in log["runs"][0]["results"] if r.get("suppressions")
        ]
        assert marked
        assert marked[0]["suppressions"] == [{"kind": "inSource"}]

    def test_one_run_per_report(self):
        from repro.static import reports_to_sarif

        log = reports_to_sarif(
            [lint_function(_lost_update), lint_function(_serial_only)]
        )
        assert len(log["runs"]) == 2


# -- baselines ---------------------------------------------------------------


class TestBaseline:
    def test_roundtrip_is_quiet(self, tmp_path):
        from repro.static import compare_to_baseline, update_baseline

        path = str(tmp_path / "baseline.json")
        reports = [lint_function(_lost_update)]
        data = update_baseline(reports, path)
        assert data["schema"] == "repro-lint-baseline/1"
        assert data["findings"]
        new, stale = compare_to_baseline(reports, path)
        assert not new and not stale

    def test_new_findings_detected(self, tmp_path):
        from repro.static import compare_to_baseline, update_baseline

        path = str(tmp_path / "baseline.json")
        update_baseline([lint_function(_serial_only)], path)  # no findings
        new, _ = compare_to_baseline([lint_function(_lost_update)], path)
        assert new
        assert all(d.code == "SAV001" for _, d in new)

    def test_update_merges_per_target(self, tmp_path):
        from repro.static import compare_to_baseline, update_baseline

        path = str(tmp_path / "baseline.json")
        update_baseline([lint_function(_lost_update)], path)
        update_baseline([lint_function(_dynamic_index)], path)
        new, stale = compare_to_baseline([lint_function(_lost_update)], path)
        assert not new and not stale

    def test_fixed_findings_reported_stale(self, tmp_path):
        from repro.static import compare_to_baseline, update_baseline

        path = str(tmp_path / "baseline.json")
        report = lint_function(_lost_update)
        update_baseline([report], path)
        clean = lint_function(_locked_update, target=report.target)
        new, stale = compare_to_baseline([clean], path)
        assert not new
        assert stale  # the SAV001 entries no longer match anything

    def test_missing_baseline_is_actionable(self, tmp_path):
        from repro.static import BaselineError, compare_to_baseline

        with pytest.raises(BaselineError, match="--update-baseline"):
            compare_to_baseline([], str(tmp_path / "missing.json"))
