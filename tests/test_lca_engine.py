"""LCA engine: memoization behaviour and the Table 1 statistics."""

import pytest

from repro.dpst import ArrayDPST, LCAEngine, NodeKind, ROOT_ID
from repro.dpst.engines import available_engines
from repro.dpst.engines import make_engine as build_engine
from repro.errors import DPSTError

from tests.conftest import build_figure2


def make_engine(cache=True, name="lca"):
    tree = ArrayDPST()
    ids = build_figure2(tree)
    return build_engine(name, tree, cache=cache), ids


class TestVerdicts:
    def test_parallel_matches_relation(self):
        engine, (s11, f12, a2, s2, s12, a3, s3) = make_engine()
        assert engine.parallel(s2, s3)
        assert engine.parallel(s2, s12)
        assert not engine.parallel(s11, s2)
        assert not engine.parallel(s12, s3)

    def test_series_helper(self):
        engine, (s11, f12, a2, s2, s12, a3, s3) = make_engine()
        assert engine.series(s11, s2)
        assert not engine.series(s2, s3)
        assert not engine.series(s2, s2)

    def test_self_is_never_parallel_and_not_counted(self):
        engine, (s11, *_) = make_engine()
        assert not engine.parallel(s11, s11)
        assert engine.stats.queries == 0

    def test_precedes(self):
        engine, (s11, f12, a2, s2, s12, a3, s3) = make_engine()
        assert engine.precedes(s11, s3)
        assert not engine.precedes(s3, s11)


class TestStats:
    def test_queries_counted(self):
        engine, (s11, f12, a2, s2, s12, a3, s3) = make_engine()
        engine.parallel(s2, s3)
        engine.parallel(s2, s3)
        engine.parallel(s3, s2)
        assert engine.stats.queries == 3
        assert engine.stats.unique == 1
        assert engine.stats.hits == 2

    def test_unique_fraction(self):
        engine, (s11, f12, a2, s2, s12, a3, s3) = make_engine()
        engine.parallel(s2, s3)
        engine.parallel(s2, s12)
        engine.parallel(s2, s3)
        engine.parallel(s2, s3)
        assert engine.stats.unique_fraction == 0.5

    def test_unique_fraction_empty(self):
        engine, _ = make_engine()
        assert engine.stats.unique_fraction == 0.0

    def test_uncached_counts_unique_too(self):
        engine, (s11, f12, a2, s2, s12, a3, s3) = make_engine(cache=False)
        engine.parallel(s2, s3)
        engine.parallel(s2, s3)
        engine.parallel(s11, s2)
        assert engine.stats.queries == 3
        assert engine.stats.unique == 2

    def test_hops_accumulate(self):
        engine, (s11, f12, a2, s2, s12, a3, s3) = make_engine(cache=False)
        before = engine.stats.hops
        engine.parallel(s2, s3)
        assert engine.stats.hops > before

    def test_reset_keeps_memo(self):
        engine, (s11, f12, a2, s2, s12, a3, s3) = make_engine()
        engine.parallel(s2, s3)
        engine.reset_stats()
        assert engine.stats.queries == 0
        engine.parallel(s2, s3)  # memo hit: no new unique
        assert engine.stats.queries == 1
        assert engine.stats.unique == 0

    def test_merge(self):
        engine, (s11, f12, a2, s2, s12, a3, s3) = make_engine()
        engine.parallel(s2, s3)
        other, ids = make_engine()
        other.parallel(ids[3], ids[6])
        other.parallel(ids[3], ids[6])
        engine.stats.merge(other.stats)
        assert engine.stats.queries == 3
        assert engine.stats.unique == 2


class TestGrowingTree:
    def test_queries_valid_while_tree_grows(self):
        tree = ArrayDPST()
        engine = LCAEngine(tree)
        f = tree.add_node(ROOT_ID, NodeKind.FINISH)
        a1 = tree.add_node(f, NodeKind.ASYNC)
        s1 = tree.add_node(a1, NodeKind.STEP)
        a2 = tree.add_node(f, NodeKind.ASYNC)
        s2 = tree.add_node(a2, NodeKind.STEP)
        assert engine.parallel(s1, s2)
        # Grow after querying: earlier verdicts stay valid, new ones work.
        s3 = tree.add_node(ROOT_ID, NodeKind.STEP)
        assert engine.parallel(s1, s2)
        assert not engine.parallel(s1, s3)


class TestLeanMemo:
    def test_memo_grows_at_most_80_bytes_per_unique_pair(self):
        """One int per pair and no reference to the queried ints: 5,000
        unique pairs of ids decoded fresh (as a trace reader hands them
        over) grow the traced heap by at most 80 bytes each."""
        import json
        import tracemalloc

        tree = ArrayDPST()
        finish = tree.add_node(ROOT_ID, NodeKind.FINISH)
        steps = []
        for _ in range(400):
            task = tree.add_node(finish, NodeKind.ASYNC)
            steps.append(tree.add_node(task, NodeKind.STEP))
        steps = [step for step in steps if step > 256]  # no cached small ints
        lines = [
            json.dumps([a, b]) for i, a in enumerate(steps) for b in steps[i + 1:]
        ][:5000]
        assert len(lines) == 5000
        engine = LCAEngine(tree)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for line in lines:
                a, b = json.loads(line)
                assert engine.parallel(a, b)
            del a, b
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert engine.stats.unique == 5000
        assert grown / 5000 <= 80

    def test_walk_is_one_layout_call(self):
        """A miss asks the layout once, through ``parallel_walk``; a hit
        not at all."""
        engine, (s11, f12, a2, s2, s12, a3, s3) = make_engine()
        calls = []
        walk = engine.tree.parallel_walk
        engine.tree.parallel_walk = lambda a, b: calls.append((a, b)) or walk(a, b)
        assert engine.parallel(s3, s2)
        assert engine.parallel(s2, s3)
        assert calls == [(s2, s3)]
        assert not hasattr(LCAEngine, "_parallel_walk")


class TestOutOfTreeIds:
    """An id that is not a node of the tree is refused by every registered
    engine with a :class:`DPSTError` naming it and the tree's size.  It
    used to index the layout's arrays from their end (a negative id; the
    ``labels`` and ``depa`` engines then reported a wrong verdict, ``vc``
    a bare ``KeyError``) or raise a bare ``IndexError``.  Each test runs
    every engine of the registry."""

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("bad", [-1, -1000, 8, 99, 2**32 + 5])
    def test_engine_refuses(self, cache, bad):
        for name in available_engines():
            engine, ids = make_engine(cache=cache, name=name)
            for a in ids:  # fill the memo first: a bad id must not hit it
                for b in ids:
                    engine.parallel(a, b)
            size = len(engine.tree)
            with pytest.raises(
                DPSTError, match=rf"node id {bad} .*\({size} nodes\)"
            ):
                engine.parallel(ids[3], bad)
            with pytest.raises(DPSTError, match=rf"node id {bad} "):
                engine.parallel(bad, ids[0])

    def test_growing_tree_is_rechecked(self):
        for name in available_engines():
            engine, (s11, *_) = make_engine(name=name)
            size = len(engine.tree)
            with pytest.raises(DPSTError, match=f"node id {size} "):
                engine.parallel(s11, size)
            step = engine.tree.add_node(ROOT_ID, NodeKind.STEP)
            assert step == size
            assert not engine.parallel(s11, step), name

    @staticmethod
    def session_over(step, engine="lca"):
        """Hand-built 5-node tree: finish 1 holds async 2 (step 3) and
        step 4; task 1 reads and writes X in step 3, task 0 writes X in
        *step* between them."""
        from repro import CheckSession
        from repro.runtime.events import MemoryEvent
        from repro.trace import Trace

        tree = ArrayDPST()
        finish = tree.add_node(ROOT_ID, NodeKind.FINISH)
        task = tree.add_node(finish, NodeKind.ASYNC)
        assert tree.add_node(task, NodeKind.STEP) == 3
        assert tree.add_node(finish, NodeKind.STEP) == 4

        def access(seq, task_id, step_id, kind):
            return MemoryEvent(
                seq=seq, task=task_id, step=step_id, location="X",
                access_type=kind, lockset=(),
            )

        events = [
            access(0, 1, 3, "read"),
            access(1, 0, step, "write"),
            access(2, 1, 3, "write"),
        ]
        return CheckSession(Trace(events=events, dpst=tree), engine=engine)

    def test_session_in_tree_step_reports(self):
        for engine in available_engines():
            report = self.session_over(4, engine).check()
            assert [v.pattern for v in report] == ["RWW"], engine

    @pytest.mark.parametrize("bad", [-1, 99])
    def test_session_refuses(self, bad):
        for engine in available_engines():
            with pytest.raises(
                DPSTError, match=rf"node id {bad} .*\(5 nodes\)"
            ):
                self.session_over(bad, engine).check()
