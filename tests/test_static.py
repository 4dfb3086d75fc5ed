"""Static access-set analysis and trace-coverage validation."""

import pytest

from repro.fuzz.generate import FuzzConfig, ProgramGenerator, program_from_spec
from repro.report import READ, WRITE
from repro.runtime import TaskProgram, run_program
from repro.static import (
    AccessPattern,
    analyze_function,
    analyze_spec,
    check_trace_coverage,
)
from repro.static.accesses import EXACT, PREFIX, UNKNOWN


# -- module-level task bodies for the AST front end --------------------------


def _child_reader(ctx):
    ctx.read("X")


def _child_rmw(ctx):
    ctx.add("Y", 1)


def _parent(ctx):
    ctx.write("X", 0)
    ctx.spawn(_child_reader)
    ctx.spawn(_child_rmw)
    ctx.sync()


def _tuple_locations(ctx):
    ctx.read(("grid", 0, 1))
    for i in range(3):
        ctx.write(("grid", i, 0), i)   # dynamic index -> prefix pattern


def _dynamic_everything(ctx, loc):
    ctx.read(loc)                      # -> unknown pattern


class TestSpecFrontEnd:
    def test_exact_from_spec(self):
        config = FuzzConfig(
            tasks=3, accesses_per_task=3, locations=2, depth=2, locks=0,
            lock_density=0.5, finish_probability=0.2, template_probability=0.0,
            seed=4,
        )
        spec = ProgramGenerator(config).generate_spec()
        result = analyze_spec(spec)
        assert result.is_precise
        assert all(p.kind == EXACT for p in result.patterns)

    def test_spec_matches_trace_exactly(self):
        """Spec analysis + generated trace: full coverage, no surprises."""
        config = FuzzConfig(
            tasks=3, accesses_per_task=3, locations=2, depth=2, locks=0,
            lock_density=0.5, finish_probability=0.2, template_probability=0.0,
            seed=4,
        )
        spec = ProgramGenerator(config).generate_spec(seed=9)
        static = analyze_spec(spec)
        program = program_from_spec(spec)
        trace = run_program(program, record_trace=True).trace
        report = check_trace_coverage(static, trace)
        assert report.complete, report.describe()

    def test_nested_spec_items(self):
        spec = (
            "task",
            (
                ("access", "A", READ),
                ("locked", "L", (("access", "B", WRITE),)),
                ("finish", (("spawn", (("access", "C", READ),)),)),
                ("sync",),
            ),
        )
        result = analyze_spec(spec)
        locations = result.exact_locations()
        assert locations == {"A", "B", "C"}

    def test_bad_spec_item(self):
        with pytest.raises(ValueError):
            analyze_spec((("teleport", "X"),))


class TestAstFrontEnd:
    def test_constant_locations(self):
        result = analyze_function(_parent)
        assert result.may_access("X", WRITE)
        assert result.may_access("X", READ)       # child reader
        assert result.may_access("Y", READ)       # ctx.add reads...
        assert result.may_access("Y", WRITE)      # ...and writes
        assert not result.unresolved_tasks

    def test_rmw_counts_both_ways(self):
        result = analyze_function(_child_rmw)
        kinds = {(p.access_type) for p in result.patterns}
        assert kinds == {READ, WRITE}

    def test_tuple_prefix_degradation(self):
        result = analyze_function(_tuple_locations)
        exact = result.exact_locations(READ)
        assert ("grid", 0, 1) in exact
        prefixes = [p for p in result.patterns if p.kind == PREFIX]
        assert any(p.location == "grid" and p.access_type == WRITE for p in prefixes)
        assert result.may_access(("grid", 99, 0), WRITE)
        assert not result.may_access(("other", 0), WRITE)

    def test_dynamic_location_is_unknown(self):
        result = analyze_function(_dynamic_everything)
        assert any(p.kind == UNKNOWN for p in result.patterns)
        assert result.may_access("absolutely anything", READ)

    def test_nested_def_bodies(self):
        def main(ctx):
            def worker(c):
                c.write("nested", 1)

            ctx.spawn(worker)
            ctx.sync()

        result = analyze_function(main)
        assert result.may_access("nested", WRITE)

    def test_unresolvable_body_flagged(self):
        def main(ctx, body):
            ctx.spawn(body)
            ctx.sync()

        result = analyze_function(main)
        assert result.unresolved_tasks
        assert not result.is_precise


class TestCoverage:
    def run_trace(self, body):
        return run_program(TaskProgram(body), record_trace=True).trace

    def test_full_coverage(self):
        trace = self.run_trace(_parent)
        report = check_trace_coverage(analyze_function(_parent), trace)
        assert not report.missing
        assert not report.unpredicted
        assert report.complete

    def test_untaken_branch_detected(self):
        def branchy(ctx):
            ctx.write("flag", 0)
            if ctx.read("flag"):
                ctx.write("rare", 1)   # never executed with this input

        trace = self.run_trace(branchy)
        report = check_trace_coverage(analyze_function(branchy), trace)
        assert any(p.location == "rare" for p in report.missing)
        assert not report.complete
        assert "rare" in report.suspect_locations

    def test_unpredicted_access_detected(self):
        """A static set missing patterns flags the extra trace accesses."""
        static = analyze_function(_child_reader)  # knows only R(X)
        trace = self.run_trace(_parent)           # also writes X, touches Y
        report = check_trace_coverage(static, trace)
        assert report.unpredicted
        assert not report.complete

    def test_imprecise_patterns_reported(self):
        trace = self.run_trace(_tuple_locations)
        report = check_trace_coverage(analyze_function(_tuple_locations), trace)
        assert report.imprecise            # the prefix writes
        assert not report.complete         # cannot *prove* coverage
        assert not report.missing

    def test_describe_mentions_verdict(self):
        trace = self.run_trace(_parent)
        report = check_trace_coverage(analyze_function(_parent), trace)
        assert "STANDS" in report.describe()

        def branchy(ctx):
            ctx.write("flag", 0)
            if ctx.read("flag"):
                ctx.write("rare", 1)

        bad = check_trace_coverage(
            analyze_function(branchy), self.run_trace(branchy)
        )
        assert "VOID" in bad.describe()
        assert "MISSING" in bad.describe()


class TestPatternMatching:
    def test_exact(self):
        pattern = AccessPattern(EXACT, ("a", 1), READ)
        assert pattern.matches(("a", 1))
        assert not pattern.matches(("a", 2))

    def test_prefix(self):
        pattern = AccessPattern(PREFIX, "a", WRITE)
        assert pattern.matches(("a", 1))
        assert pattern.matches(("a", 1, 2))
        assert not pattern.matches("a")
        assert not pattern.matches(("b", 1))

    def test_unknown(self):
        pattern = AccessPattern(UNKNOWN, None, READ)
        assert pattern.matches("anything")
        assert pattern.matches(("any", "thing"))

    def test_describe(self):
        assert AccessPattern(EXACT, "X", WRITE).describe() == "W('X')"
        assert AccessPattern(PREFIX, "g", READ).describe() == "R(('g', *))"
        assert AccessPattern(UNKNOWN, None, READ).describe() == "R(?)"


# -- keyword arguments and analyze_function edge cases -----------------------


def _kwarg_accessor(ctx):
    ctx.write(location="kw_w", value=1)
    ctx.read(location="kw_r")
    ctx.add(location="kw_a", delta=1)
    ctx.update(location="kw_u", fn=lambda v: v)


def _kwarg_spawner(ctx):
    ctx.spawn(body=_kwarg_accessor)
    ctx.sync()


def _kwarg_template(ctx):
    from repro.runtime import parallel_for, parallel_pipeline, parallel_reduce

    parallel_for(ctx, 0, 4, body=_kwarg_accessor)
    parallel_reduce(ctx, 0, 4, map_body=_reduce_body, combine=max, identity=0)
    parallel_pipeline(ctx, [1, 2], stages=[_stage])


def _reduce_body(ctx, i):
    return ctx.read("reduce_src")


def _stage(ctx, item):
    ctx.write("stage_out", item)


def _lambda_spawner(ctx):
    ctx.spawn(lambda c: c.write("from_lambda", 1))
    ctx.sync()


def _grandchild_defs(ctx):
    def child(c):
        def grandchild(cc):
            cc.write("deep", 1)

        c.spawn(grandchild)
        c.sync()

    ctx.spawn(child)
    ctx.sync()


def _mutual_a(ctx):
    ctx.write("ping", 1)
    ctx.spawn(_mutual_b)
    ctx.sync()


def _mutual_b(ctx):
    ctx.write("pong", 1)
    ctx.spawn(_mutual_a)
    ctx.sync()


class TestKeywordArguments:
    """Regression: the analyzer used to see positional arguments only."""

    def test_access_location_kwargs(self):
        result = analyze_function(_kwarg_accessor)
        assert result.may_access("kw_w", WRITE)
        assert result.may_access("kw_r", READ)
        # RMW helpers count both ways, kwargs included.
        assert result.may_access("kw_a", READ)
        assert result.may_access("kw_a", WRITE)
        assert result.may_access("kw_u", WRITE)

    def test_spawn_body_kwarg(self):
        result = analyze_function(_kwarg_spawner)
        assert result.may_access("kw_w", WRITE)
        assert not result.unresolved_tasks

    def test_template_body_kwargs(self):
        result = analyze_function(_kwarg_template)
        assert result.may_access("kw_w", WRITE)
        assert result.may_access("reduce_src", READ)
        assert result.may_access("stage_out", WRITE)


class TestAnalyzeFunctionEdgeCases:
    def test_lambda_spawn_body(self):
        result = analyze_function(_lambda_spawner)
        assert result.may_access("from_lambda", WRITE)
        assert not result.unresolved_tasks

    def test_nested_def_grandchildren(self):
        result = analyze_function(_grandchild_defs)
        assert result.may_access("deep", WRITE)

    def test_rmw_literal_produces_read_and_write(self):
        def rmw(ctx):
            ctx.add("acc", 2)

        kinds = {(p.location, p.access_type) for p in analyze_function(rmw).patterns}
        assert ("acc", READ) in kinds
        assert ("acc", WRITE) in kinds

    def test_mutual_recursion_terminates(self):
        result = analyze_function(_mutual_a)
        assert result.may_access("ping", WRITE)
        assert result.may_access("pong", WRITE)
