"""Coverage-report corners and the imprecision diagnostic paths.

Complements ``tests/test_static.py``: reserved template scratch
locations, unresolved-task plumbing, ``suspect_locations`` filtering,
the ``SAV102``/``SAV105`` diagnostics together with their effect on
skeleton exactness (lock notes keep it; a non-constant location voids
it), and coverage through the skeleton projection: helpers are
followed, and every construct that may hide an access voids the
guarantee.
"""

import json

import pytest

from repro import suite, workloads
from repro.fuzz.generate import FuzzConfig, ProgramGenerator
from repro.report import WRITE
from repro.runtime import TaskProgram, parallel_reduce, run_program
from repro.static import (
    AccessPattern,
    analyze_function,
    analyze_spec,
    check_trace_coverage,
    lint_function,
)
from repro.static.accesses import EXACT, PREFIX
from repro.static.diagnostics import CTX_ESCAPE, INFO, WARNING


def _trace_of(body):
    return run_program(TaskProgram(body), record_trace=True).trace


# -- module-level bodies ------------------------------------------------------


def _reducer(ctx):
    ctx.write("total", parallel_reduce(ctx, 0, 4, _read_cell, lambda a, b: a + b, 0))


def _read_cell(ctx, i):
    return ctx.read("cells")


def _spawns_parameter(ctx, body):
    ctx.spawn(body)
    ctx.sync()


def _branchy(ctx):
    ctx.write("flag", 0)
    if ctx.read("flag"):
        ctx.write("rare", 1)
        for i in range(2):
            ctx.write(("arr", i), 1)


def _dynamic_lock(ctx, suffix="a"):
    with ctx.lock("L" + suffix):
        ctx.write("d", 1)


def _computed_cell(ctx):
    for i in range(3):
        ctx.write(("cell", i), i)
    ctx.write("ok", 0)


def _write_x(ctx):
    ctx.write("X", 1)


def _calls_helper(ctx):
    _write_x(ctx)


def _quiet_handler(ctx):
    pass


def _logging_handler(ctx):
    ctx.write("log", 1)


HANDLERS = {"quiet": _quiet_handler, "loud": _logging_handler}
MODE = "quiet"


def _dispatches(ctx):
    ctx.write("X", 1)
    HANDLERS[MODE](ctx)


def _closure_logger(ctx):
    def log():
        ctx.write("log", 1)

    if ctx.read("verbose"):
        log()


class TestCoverageCorners:
    def test_reserved_scratch_locations_ignored(self):
        """``__reduce__`` plumbing in the trace is not "unpredicted"."""
        trace = _trace_of(_reducer)
        assert any(
            isinstance(e.location, tuple) and e.location[0] == "__reduce__"
            for e in trace.memory_events()
        )
        report = check_trace_coverage(analyze_function(_reducer), trace)
        assert not report.unpredicted, report.describe()

    def test_unresolved_tasks_void_the_guarantee(self):
        static = analyze_function(_spawns_parameter)
        report = check_trace_coverage(static, _trace_of(_branchy))
        assert report.unresolved_tasks
        assert not report.complete
        assert "UNRESOLVED TASKS" in report.describe()

    def test_suspect_locations_only_from_exact_missing(self):
        report = check_trace_coverage(analyze_function(_branchy), _trace_of(_branchy))
        missing_kinds = {p.kind for p in report.missing}
        assert missing_kinds == {EXACT, PREFIX}  # "rare" + ("arr", *)
        assert report.suspect_locations == {"rare"}


class TestImprecisionDiagnostics:
    def test_dynamic_lock_name_is_info_and_never_poisons(self):
        report = lint_function(_dynamic_lock)
        sav105 = [d for d in report.diagnostics if d.code == "SAV105"]
        assert sav105 and sav105[0].severity == INFO
        assert "not a compile-time constant" in sav105[0].message
        # A lock name is not an access: the skeleton stays exact.
        assert report.skeleton.is_exact

    def test_nonconstant_location_warns_but_stays_per_location(self):
        report = lint_function(_computed_cell)
        sav102 = [d for d in report.diagnostics if d.code == "SAV102"]
        assert sav102 and sav102[0].severity == WARNING
        assert "prefix" in sav102[0].message
        assert not report.skeleton.is_exact
        # The constant location stays exact next to the computed one.
        kinds = {a.location: a.kind for a in report.skeleton.accesses}
        assert kinds["ok"] == EXACT


def _corpus():
    for case in suite.all_cases():
        yield pytest.param(case.name, case.build, id=f"suite-{case.name}")
    for spec in workloads.all_workloads():
        yield pytest.param(
            spec.name, lambda spec=spec: spec.build(1), id=f"workload-{spec.name}"
        )


#: Suite programs whose accesses all go through helpers taking ctx.
HELPER_ONLY = {
    "pattern_rrw",
    "pattern_rwr",
    "pattern_rww",
    "pattern_wrr",
    "pattern_wrw",
    "pattern_wwr",
    "nest_deep_chain",
}


class TestSkeletonProjection:
    """analyze_function is the skeleton's access set: it follows helpers
    and keeps every note that may hide an access."""

    @pytest.mark.parametrize("name, build", list(_corpus()))
    def test_corpus_accesses_all_predicted(self, name, build):
        program = build()
        trace = run_program(program, record_trace=True).trace
        report = check_trace_coverage(analyze_function(program.body), trace)
        assert not report.unpredicted, report.describe()
        if name in HELPER_ONLY:
            assert report.complete, report.describe()

    def test_inlined_helper_is_predicted(self):
        static = analyze_function(_calls_helper)
        assert AccessPattern(EXACT, "X", WRITE) in static.patterns
        report = check_trace_coverage(static, _trace_of(_calls_helper))
        assert report.complete, report.describe()

    def test_unresolvable_handler_voids_the_guarantee(self):
        """The quiet handler does nothing on this input, but another input
        writes 'log': the escaped context must void the guarantee."""
        report = check_trace_coverage(
            analyze_function(_dispatches), _trace_of(_dispatches)
        )
        assert not report.missing and not report.unpredicted
        assert any("ctx-escape" in entry for entry in report.unresolved_tasks)
        assert not report.complete
        assert "guarantee VOID" in report.describe()

    def test_closure_over_the_context_voids_the_guarantee(self):
        """log() writes through the enclosing ctx without receiving it."""
        report = check_trace_coverage(
            analyze_function(_closure_logger), _trace_of(_closure_logger)
        )
        assert any("closes over the context" in e for e in report.unresolved_tasks)
        assert not report.complete
        assert CTX_ESCAPE in {d.code for d in lint_function(_closure_logger).diagnostics}

    def test_json_round_tripped_spec(self):
        """JSON turns tuple locations into lists; the projection re-tuples them."""
        config = FuzzConfig(
            tasks=3, accesses_per_task=3, locations=2, depth=2, locks=0,
            lock_density=0.5, finish_probability=0.2, template_probability=0.0,
            seed=4,
        )
        spec = ProgramGenerator(config).generate_spec()
        assert any(isinstance(p.location, tuple) for p in analyze_spec(spec).patterns)
        round_tripped = analyze_spec(json.loads(json.dumps(spec)))
        assert round_tripped.patterns == analyze_spec(spec).patterns
