"""Tests of the benchmark itself::

    python -m pytest perfbench/test_run.py

Quick runs of every workload must emit every metric ``BENCHMARK.json``
declares with no failed operation; the traced run's parts must add up to
the check they attribute; the query-logging engine must not change a
verdict; ``--compare`` must flag a regression beyond a bound; and the
benchmark must refuse to run without the sources it measures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # noqa: I100  (puts the repro sources on the path)
import harness
import layers
import scenarios
from repro import CheckSession
from repro.report import normalize_report

SPEC = run.load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_end_to_end_metric(workload):
    result = run.run_once(workload, seed=1, seconds=0, trace=False, quick=True)
    assert result["failed"] == 0, result["errors"]
    assert result["correct"] and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    # A few seconds of passes: single millisecond-sized timings on a
    # shared host stray by tens of percent, their medians do not.
    result = run.run_once(workload, seed=1, seconds=3, trace=True, quick=True)
    assert result["failed"] == 0, result["errors"]
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    if workload == "paper13":
        # Thirteen millisecond-sized traces: the per-call costs that each
        # separately timed part pays again dominate the sum below.
        return
    parts = (metrics["trace.open_s"] + metrics["trace.decode_v3_s"]
             + metrics["checker.replay_s"])
    whole = metrics["session.check_v3_s"]
    assert abs(parts - whole) <= 0.25 * whole, (parts, whole)


@pytest.mark.parametrize("workload", ["churn", "dnc"])
def test_capture_engine_answers_like_lca(tmp_path, workload):
    scenario = scenarios.build(workload, seed=1, quick=True)
    (item,) = harness.prepare(scenario, str(tmp_path / "setup"), harness.Gate())
    queries = layers.register_capture()
    captured = CheckSession(item.v3, engine=layers.CAPTURE_ENGINE).check()
    assert queries
    plain = CheckSession(item.v3, engine="lca").check()
    assert normalize_report(captured) == normalize_report(plain) == item.reference


def _runs(workload: str, values):
    return [
        {"workload": workload, "metrics": {"check_v3_x": {"value": v, "unit": "x"}}}
        for v in values
    ]


def test_compare_flags_only_a_regression_beyond_the_bound(tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "check_v3_x")
    steady = [1.0, 1.001, 0.999, 1.002, 0.998]
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"sets": [{"runs": _runs("churn", steady)}]}))
    same = tmp_path / "same.json"
    same.write_text(json.dumps({"sets": [{"runs": _runs("churn", steady)}]}))
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps({"sets": [{"runs": _runs(
        "churn", [v * (1 + 2 * bound) for v in steady]
    )}]}))
    assert run.compare(str(base), str(same)) == 0
    assert run.compare(str(base), str(slower)) == 1
    assert "worse" in capsys.readouterr().out


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_PATH, tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         "churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
