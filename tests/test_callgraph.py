"""The interprocedural layer: call graph, SCCs, summaries, suppressions.

Covers :mod:`repro.static.callgraph` (resolution through module globals,
closures, and attribute chains; Tarjan condensation; stats) and
:mod:`repro.static.summaries` (bottom-up effect folding with a fixpoint
inside SCCs), plus their integration into
:func:`repro.static.skeleton_from_function`.
"""

import types

from repro.static import build_callgraph, compute_summaries, skeleton_from_function
from repro.static.accesses import EXACT
from repro.static.callgraph import (
    INLINE,
    SPAWN,
    scan_suppressions,
)

# -- module-level bodies (resolvable through this module's globals) ----------


def _leaf(ctx):
    ctx.write("leaf", 1)


def _mid(ctx):
    _leaf(ctx)
    ctx.read("mid")


def _spawner(ctx):
    ctx.spawn(_mid)
    ctx.sync()


def _ping(ctx):
    ctx.write("p", 1)
    _pong(ctx)


def _pong(ctx):
    ctx.read("q")
    _ping(ctx)


def _ping_driver(ctx):
    _ping(ctx)


def _locked_rec(ctx):
    with ctx.lock("L"):
        ctx.write("r", 1)
    _locked_rec(ctx)


def _escaping(ctx):
    box = [ctx]  # noqa: F841 -- deliberate ctx escape
    ctx.write("e", 1)


def _unresolved_spawn(ctx):
    fn = undefined_factory()  # noqa: F821 -- deliberately dynamic
    ctx.spawn(fn)


helpers = types.SimpleNamespace(leaf=_leaf, nested=types.SimpleNamespace(mid=_mid))


def _attr_caller(ctx):
    helpers.leaf(ctx)
    helpers.nested.mid(ctx)


def _marker(fn):
    return f"{fn.__module__}.{fn.__qualname__}"


# -- graph construction ------------------------------------------------------


class TestCallGraph:
    def test_inline_chain_resolves_through_globals(self):
        graph = build_callgraph(_spawner)
        assert _marker(_mid) in graph.facts
        assert _marker(_leaf) in graph.facts
        kinds = {
            (site.kind, site.callee)
            for sites in graph.edges.values()
            for site in sites
        }
        assert (SPAWN, _marker(_mid)) in kinds
        assert (INLINE, _marker(_leaf)) in kinds
        assert graph.unresolved_calls() == 0

    def test_attribute_chains_resolve(self):
        graph = build_callgraph(_attr_caller)
        assert _marker(_leaf) in graph.facts
        assert _marker(_mid) in graph.facts
        assert graph.unresolved_calls() == 0

    def test_unresolved_spawn_counted(self):
        graph = build_callgraph(_unresolved_spawn)
        assert graph.unresolved_calls() >= 1
        assert graph.stats().unresolved_calls >= 1

    def test_sccs_emitted_callees_first(self):
        graph = build_callgraph(_spawner)
        order = [frozenset(component) for component in graph.sccs()]
        position = {
            marker: index
            for index, component in enumerate(order)
            for marker in component
        }
        assert position[_marker(_leaf)] < position[_marker(_mid)]
        assert position[_marker(_mid)] < position[_marker(_spawner)]

    def test_mutual_recursion_is_one_scc(self):
        graph = build_callgraph(_ping_driver)
        components = [set(c) for c in graph.sccs() if len(c) > 1]
        assert components == [{_marker(_ping), _marker(_pong)}]
        assert graph.recursive_markers() == {_marker(_ping), _marker(_pong)}

    def test_stats_shape(self):
        stats = build_callgraph(_ping_driver).stats()
        assert stats.functions == 3
        assert stats.sccs == 2  # {_ping,_pong} + {_ping_driver}
        assert stats.unresolved_calls == 0
        assert stats.recursive_functions == 2
        data = stats.to_dict()
        assert set(data) >= {"functions", "sccs", "unresolved_calls"}


# -- summaries ---------------------------------------------------------------


class TestSummaries:
    def test_patterns_fold_bottom_up(self):
        graph = build_callgraph(_spawner)
        summaries = compute_summaries(graph)
        mid = summaries[_marker(_mid)]
        described = {p.describe() for p in mid.patterns}
        assert any("leaf" in text for text in described)
        assert any("mid" in text for text in described)

    def test_step_local_recursion(self):
        summaries = compute_summaries(build_callgraph(_ping_driver))
        ping = summaries[_marker(_ping)]
        pong = summaries[_marker(_pong)]
        assert ping.recursive and pong.recursive
        # Patterns reach the fixpoint: both members see both locations.
        assert ping.patterns == pong.patterns
        assert len(ping.patterns) == 2
        # Pure straight-line ctx accesses: safe to stop unrolling at.
        assert ping.step_local and ping.resolved

    def test_locks_void_step_locality(self):
        summaries = compute_summaries(build_callgraph(_locked_rec))
        summary = summaries[_marker(_locked_rec)]
        assert summary.locks
        assert not summary.step_local
        assert summary.resolved  # accesses still fully accounted for

    def test_spawn_edge_forces_constructs(self):
        summaries = compute_summaries(build_callgraph(_spawner))
        assert summaries[_marker(_spawner)].constructs
        assert summaries[_marker(_mid)].step_local

    def test_escape_and_unresolved_void_resolution(self):
        escaped = compute_summaries(build_callgraph(_escaping))[_marker(_escaping)]
        assert escaped.escapes and not escaped.resolved
        graph = build_callgraph(_unresolved_spawn)
        summary = compute_summaries(graph)[_marker(_unresolved_spawn)]
        assert summary.unresolved >= 1 and not summary.resolved


# -- suppression comment scanning --------------------------------------------


class TestSuppressionScan:
    def test_codes_and_blanket_forms(self):
        source = (
            "x = 1  # repro: ignore[SAV001, SAV104]\n"
            "y = 2\n"
            "z = 3  # repro: ignore\n"
        )
        found = scan_suppressions(source)
        assert found == {1: frozenset({"SAV001", "SAV104"}), 3: frozenset()}

    def test_case_and_whitespace_tolerant(self):
        found = scan_suppressions("a = 1  #repro:ignore[ sav001 ]\n")
        assert found == {1: frozenset({"SAV001"})}


# -- skeleton integration ----------------------------------------------------


class TestSkeletonIntegration:
    def test_callgraph_stats_land_on_skeleton(self):
        skeleton = skeleton_from_function(_spawner)
        stats = skeleton.callgraph_stats
        assert stats is not None
        assert stats.functions == 3
        assert stats.unresolved_calls == 0

    def test_attribute_resolved_helper_stays_exact(self):
        skeleton = skeleton_from_function(_attr_caller)
        assert skeleton.is_exact, [n.kind for n in skeleton.notes]
        locations = {a.location for a in skeleton.accesses}
        assert locations == {"leaf", "mid"}

    def test_step_local_recursion_stays_exact(self):
        skeleton = skeleton_from_function(_ping_driver)
        assert skeleton.is_exact, [
            (n.kind, n.detail) for n in skeleton.notes
        ]
        locations = {a.location for a in skeleton.accesses}
        assert locations == {"p", "q"}

    def test_effectful_recursion_gets_localized_note(self):
        skeleton = skeleton_from_function(_locked_rec)
        notes = [n for n in skeleton.notes if n.kind == "recursive-inline"]
        assert notes, [(n.kind, n.detail) for n in skeleton.notes]
        note = notes[0]
        # The resolved summary bounds the deeper iterations, and its
        # accesses are in the skeleton.
        assert not note.hides_accesses
        r_accesses = [a for a in skeleton.accesses if a.location == "r"]
        assert r_accesses and all(a.kind == EXACT for a in r_accesses)
