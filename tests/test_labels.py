"""Label-based parallelism engine: correctness against the LCA engine."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checker import OptAtomicityChecker
from repro.dpst import ArrayDPST, LCAEngine, NodeKind, ROOT_ID, relation
from repro.dpst.labels import LabelEngine, compute_label, labels_parallel
from repro.fuzz.generate import FuzzConfig, ProgramGenerator
from repro.runtime import TaskProgram, run_program

from tests.conftest import build_figure2
from tests.test_dpst_property import insertion_scripts, replay


class TestLabels:
    def test_root_label_empty(self):
        tree = ArrayDPST()
        assert compute_label(tree, ROOT_ID) == ()

    def test_label_length_is_depth(self):
        tree = ArrayDPST()
        build_figure2(tree)
        for node in tree.nodes():
            assert len(compute_label(tree, node)) == tree.depth(node)

    def test_figure2_verdicts(self):
        tree = ArrayDPST()
        s11, f12, a2, s2, s12, a3, s3 = build_figure2(tree)
        engine = LabelEngine(tree)
        assert engine.parallel(s2, s12)
        assert engine.parallel(s2, s3)
        assert not engine.parallel(s11, s2)
        assert not engine.parallel(s12, s3)

    def test_precedes(self):
        tree = ArrayDPST()
        s11, f12, a2, s2, s12, a3, s3 = build_figure2(tree)
        engine = LabelEngine(tree)
        assert engine.precedes(s11, s2)
        assert engine.precedes(s12, s3)
        assert not engine.precedes(s3, s12)
        assert not engine.precedes(s2, s3)  # parallel, not ordered

    def test_mismatched_labels_rejected(self):
        with pytest.raises(ValueError):
            labels_parallel(((0, True),), ((0, False),))

    def test_stats_match_lca_engine_shape(self):
        tree = ArrayDPST()
        s11, f12, a2, s2, s12, a3, s3 = build_figure2(tree)
        engine = LabelEngine(tree)
        engine.parallel(s2, s3)
        engine.parallel(s2, s3)
        assert engine.stats.queries == 2
        assert engine.stats.unique == 1
        engine.reset_stats()
        assert engine.stats.queries == 0


@given(insertion_scripts())
@settings(max_examples=50, deadline=None)
def test_label_engine_equals_lca_engine(script):
    tree = replay(script, ArrayDPST())
    labels = LabelEngine(tree)
    lca = LCAEngine(tree)
    for a in tree.nodes():
        for b in tree.nodes():
            assert labels.parallel(a, b) == lca.parallel(a, b), (a, b)


@given(insertion_scripts())
@settings(max_examples=30, deadline=None)
def test_label_precedes_equals_relation(script):
    tree = replay(script, ArrayDPST())
    engine = LabelEngine(tree)
    steps = tree.step_nodes()
    for a in steps:
        for b in steps:
            assert engine.precedes(a, b) == relation.precedes(tree, a, b), (a, b)


class TestCheckerUnderLabelEngine:
    def test_run_program_option(self):
        def rmw(ctx):
            value = ctx.read("X")
            ctx.write("X", value + 1)

        def main(ctx):
            ctx.spawn(rmw)
            ctx.spawn(rmw)
            ctx.sync()

        checker = OptAtomicityChecker()
        result = run_program(
            TaskProgram(main), observers=[checker], parallel_engine="labels"
        )
        assert set(result.report().locations()) == {"X"}

    def test_invalid_engine_rejected(self):
        def main(ctx):
            ctx.read("X")

        with pytest.raises(ValueError):
            run_program(
                TaskProgram(main),
                observers=[OptAtomicityChecker()],
                parallel_engine="voodoo",
            )

    @given(seed=st.integers(min_value=0, max_value=3_000))
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_same_verdicts_as_lca_on_generated_programs(self, seed):
        generator = ProgramGenerator(
            FuzzConfig(
                tasks=4, accesses_per_task=3, locations=2, locks=1, depth=2,
                lock_density=0.5, finish_probability=0.2,
                template_probability=0.0,
            )
        )
        program = generator.generate_program(seed=seed)
        with_lca = OptAtomicityChecker(mode="thorough")
        run_program(program, observers=[with_lca], parallel_engine="lca")
        with_labels = OptAtomicityChecker(mode="thorough")
        run_program(program, observers=[with_labels], parallel_engine="labels")
        assert set(with_lca.report.locations()) == set(
            with_labels.report.locations()
        )

    def test_suite_passes_under_labels(self):
        from repro.suite import all_cases

        for case in all_cases():
            checker = OptAtomicityChecker()
            result = run_program(
                case.build(), observers=[checker], parallel_engine="labels"
            )
            assert set(result.report().locations()) == set(case.expected), case.name
