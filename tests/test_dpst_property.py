"""Property-based tests on the DPST (hypothesis).

Random trees are generated as insertion scripts: a sequence of (parent
choice, kind) decisions replayed against both layouts.  Invariants:

* ``validate()`` holds after any legal insertion sequence;
* both layouts agree on every accessor and every relation query;
* the LCA walk agrees with a naive path-intersection implementation;
* ``parallel`` is symmetric and irreflexive; ``precedes`` is a strict
  partial order; distinct steps are exactly one of {parallel, <, >};
* each layout's ``parallel_walk`` equals ``relation.parallel`` and
  charges the engine's hop count;
* the engine's cached verdicts equal the uncached ones.
"""

from hypothesis import given, settings, strategies as st

from repro.dpst import ArrayDPST, LCAEngine, LinkedDPST, NodeKind, ROOT_ID, relation


@st.composite
def insertion_scripts(draw):
    """A list of (parent_index_choice, kind) insertion decisions."""
    length = draw(st.integers(min_value=1, max_value=24))
    script = []
    for _ in range(length):
        parent_choice = draw(st.integers(min_value=0, max_value=10_000))
        kind = draw(st.sampled_from([NodeKind.STEP, NodeKind.ASYNC, NodeKind.FINISH]))
        script.append((parent_choice, kind))
    return script


def replay(script, tree):
    """Replay a script, mapping each parent choice onto a legal inner node."""
    inner = [ROOT_ID]
    for parent_choice, kind in script:
        parent = inner[parent_choice % len(inner)]
        node = tree.add_node(parent, kind)
        if kind is not NodeKind.STEP:
            inner.append(node)
    return tree


def naive_lca(tree, a, b):
    path_a = set(tree.path_to_root(a))
    node = b
    while node not in path_a:
        node = tree.parent(node)
    return node


@given(insertion_scripts())
@settings(max_examples=60, deadline=None)
def test_validate_after_any_script(script):
    tree = replay(script, ArrayDPST())
    tree.validate()


@given(insertion_scripts())
@settings(max_examples=60, deadline=None)
def test_layouts_agree(script):
    array = replay(script, ArrayDPST())
    linked = replay(script, LinkedDPST())
    assert len(array) == len(linked)
    for node in array.nodes():
        assert array.kind(node) == linked.kind(node)
        assert array.parent(node) == linked.parent(node)
        assert array.depth(node) == linked.depth(node)
        assert array.sibling_rank(node) == linked.sibling_rank(node)
    for a in array.nodes():
        for b in array.nodes():
            assert relation.parallel(array, a, b) == relation.parallel(linked, a, b)
            assert relation.precedes(array, a, b) == relation.precedes(linked, a, b)


@given(insertion_scripts())
@settings(max_examples=60, deadline=None)
def test_lca_matches_naive(script):
    tree = replay(script, ArrayDPST())
    nodes = list(tree.nodes())
    for a in nodes:
        for b in nodes:
            assert relation.lca(tree, a, b) == naive_lca(tree, a, b)


@given(insertion_scripts())
@settings(max_examples=60, deadline=None)
def test_parallel_symmetric_irreflexive(script):
    tree = replay(script, ArrayDPST())
    for a in tree.nodes():
        assert not relation.parallel(tree, a, a)
        for b in tree.nodes():
            assert relation.parallel(tree, a, b) == relation.parallel(tree, b, a)


@given(insertion_scripts())
@settings(max_examples=40, deadline=None)
def test_steps_trichotomy(script):
    tree = replay(script, ArrayDPST())
    steps = tree.step_nodes()
    for a in steps:
        for b in steps:
            if a == b:
                continue
            verdicts = (
                relation.parallel(tree, a, b),
                relation.precedes(tree, a, b),
                relation.precedes(tree, b, a),
            )
            assert sum(verdicts) == 1


@given(insertion_scripts())
@settings(max_examples=40, deadline=None)
def test_precedes_transitive_on_steps(script):
    tree = replay(script, ArrayDPST())
    steps = tree.step_nodes()[:8]  # bound the cubic loop
    for a in steps:
        for b in steps:
            if not relation.precedes(tree, a, b):
                continue
            for c in steps:
                if relation.precedes(tree, b, c):
                    assert relation.precedes(tree, a, c)


@given(insertion_scripts())
@settings(max_examples=40, deadline=None)
def test_all_registered_engines_match_relation(script):
    """Registry-driven equivalence: every engine (current and future)
    must agree with the SPD3 relation on every node pair."""
    from repro.dpst.engines import available_engines, make_engine

    tree = replay(script, ArrayDPST())
    engines = {name: make_engine(name, tree) for name in available_engines()}
    nodes = list(tree.nodes())
    for a in nodes:
        for b in nodes:
            want_parallel = relation.parallel(tree, a, b)
            want_precedes = relation.precedes(tree, a, b)
            for name, engine in engines.items():
                assert engine.parallel(a, b) == want_parallel, (name, a, b)
                assert engine.precedes(a, b) == want_precedes, (name, a, b)
                assert engine.series(a, b) == (
                    a != b and not want_parallel
                ), (name, a, b)


@given(insertion_scripts())
@settings(max_examples=60, deadline=None)
def test_parallel_walk_matches_relation(script):
    """Each layout's one-call walk gives the reference verdict, and the
    hop count the engine has always charged:
    ``|d(a) - d(b)| + d(a) - d(lca(a, b))``."""
    for tree in (replay(script, ArrayDPST()), replay(script, LinkedDPST())):
        for a in tree.nodes():
            for b in tree.nodes():
                parallel, hops = tree.parallel_walk(a, b)
                assert parallel == relation.parallel(tree, a, b), (a, b)
                ancestor = relation.lca(tree, a, b)
                assert hops == (
                    abs(tree.depth(a) - tree.depth(b))
                    + tree.depth(a) - tree.depth(ancestor)
                ), (a, b)


@given(insertion_scripts())
@settings(max_examples=40, deadline=None)
def test_engine_cache_transparent(script):
    tree = replay(script, ArrayDPST())
    cached = LCAEngine(tree, cache=True)
    uncached = LCAEngine(tree, cache=False)
    for a in tree.nodes():
        for b in tree.nodes():
            assert cached.parallel(a, b) == uncached.parallel(a, b)
            # Ask twice: the memoized answer must be stable.
            assert cached.parallel(a, b) == cached.parallel(b, a)


# ---------------------------------------------------------------------------
# Generator-driven MHP properties
#
# The fuzzing generator produces whole task-parallel programs (spawns,
# syncs, nested finishes, locks) rather than raw insertion scripts, so
# these trees exercise exactly the shapes the runtime builds.  Seeds are
# pinned: failures reproduce byte-for-byte.
# ---------------------------------------------------------------------------

import pytest

from repro.dpst import LabelEngine
from repro.fuzz import FuzzConfig, ProgramGenerator, program_from_spec
from repro.runtime.executor import SerialExecutor
from repro.runtime.program import run_program

PINNED_SEEDS = [0, 1, 2, 7, 11, 42, 1234]


def _fuzzed_dpst(seed):
    config = FuzzConfig(tasks=8, depth=3, locations=4, seed=seed)
    spec = ProgramGenerator(config).generate_spec(seed)
    result = run_program(
        program_from_spec(spec), executor=SerialExecutor(), record_trace=True
    )
    return result.dpst


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_fuzzed_mhp_symmetric_irreflexive_on_steps(seed):
    tree = _fuzzed_dpst(seed)
    tree.validate()
    steps = tree.step_nodes()
    for a in steps:
        assert not relation.parallel(tree, a, a)
        for b in steps:
            assert relation.parallel(tree, a, b) == relation.parallel(tree, b, a)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_fuzzed_steps_trichotomy(seed):
    tree = _fuzzed_dpst(seed)
    steps = tree.step_nodes()
    for a in steps:
        for b in steps:
            if a == b:
                continue
            verdicts = (
                relation.parallel(tree, a, b),
                relation.precedes(tree, a, b),
                relation.precedes(tree, b, a),
            )
            assert sum(verdicts) == 1


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_fuzzed_lca_and_label_engines_agree(seed):
    tree = _fuzzed_dpst(seed)
    lca = LCAEngine(tree)
    labels = LabelEngine(tree)
    steps = tree.step_nodes()
    for a in steps:
        for b in steps:
            assert lca.parallel(a, b) == labels.parallel(a, b), (seed, a, b)
            assert lca.precedes(a, b) == labels.precedes(a, b), (seed, a, b)


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_fuzzed_all_registered_engines_agree(seed):
    """Every registered engine agrees pairwise on runtime-built trees.

    Driven by the registry, so an engine registered tomorrow is covered
    by this test without editing it.
    """
    from repro.dpst.engines import available_engines, make_engine

    tree = _fuzzed_dpst(seed)
    engines = {name: make_engine(name, tree) for name in available_engines()}
    steps = tree.step_nodes()
    for a in steps:
        for b in steps:
            parallels = {n: e.parallel(a, b) for n, e in engines.items()}
            assert len(set(parallels.values())) == 1, (seed, a, b, parallels)
            precedes = {n: e.precedes(a, b) for n, e in engines.items()}
            assert len(set(precedes.values())) == 1, (seed, a, b, precedes)
