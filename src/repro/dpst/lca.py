"""Cached least-common-ancestor engine with query statistics.

The checker performs a ``parallel(S_i, S_j)`` query on almost every
non-first memory access, and the same step pairs recur constantly (a step
performs many accesses).  The paper therefore caches LCA queries; Table 1
reports, per benchmark, the total number of LCA queries and the percentage
that were *unique* -- benchmarks with a high unique fraction (kmeans,
raycast) benefit little from the cache and show the highest overheads.

:class:`LCAEngine` wraps a DPST with exactly that: a memo table from
(unordered) step pairs to the parallelism verdict, plus counters that
produce Table 1's columns.  Caching is safe because the DPST only grows and
a node's path to the root never changes, so a computed verdict for a pair
of existing nodes is stable for the rest of the execution.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.dpst.base import DPSTBase
from repro.dpst.nodes import NodeKind
from repro.dpst import relation
from repro.dpst.stats import EngineStats


class LCAEngine:
    """Parallelism queries over a DPST, memoized per unordered step pair.

    Parameters
    ----------
    tree:
        The DPST to query.  The engine holds a reference, not a copy; it is
        expected to be queried while the tree grows.
    cache:
        When ``False`` every query performs the full tree walk.  Used by the
        LCA-cache ablation benchmark.
    """

    engine_name = "lca"

    def __init__(self, tree: DPSTBase, cache: bool = True) -> None:
        self.tree = tree
        self.cache_enabled = cache
        self.stats = EngineStats()
        self._parallel_memo: Dict[Tuple[int, int], bool] = {}

    # -- queries ----------------------------------------------------------

    def parallel(self, a: int, b: int) -> bool:
        """May step nodes *a* and *b* logically execute in parallel?

        The memoized hot path of the whole analysis.
        """
        if a == b:
            return False
        key = (a, b) if a < b else (b, a)
        self.stats.queries += 1
        if self.cache_enabled:
            memo = self._parallel_memo
            cached = memo.get(key)
            if cached is not None:
                return cached
            self.stats.unique += 1
            verdict = self._parallel_walk(key[0], key[1])
            memo[key] = verdict
            return verdict
        # Uncached mode still tracks uniqueness so Table 1 can be produced
        # with the cache disabled.
        if key not in self._parallel_memo:
            self.stats.unique += 1
            self._parallel_memo[key] = True  # presence marker only
        return self._parallel_walk(key[0], key[1])

    def series(self, a: int, b: int) -> bool:
        """``True`` iff *a* and *b* are distinct and cannot run in parallel."""
        return a != b and not self.parallel(a, b)

    def lca(self, a: int, b: int) -> int:
        """Plain LCA (not memoized; rarely needed by clients directly)."""
        return relation.lca(self.tree, a, b)

    def precedes(self, a: int, b: int) -> bool:
        """``True`` iff step *a* must complete before step *b* starts."""
        return relation.precedes(self.tree, a, b)

    # -- internals ----------------------------------------------------------

    def _parallel_walk(self, a: int, b: int) -> bool:
        """Uncached SPD3 parallelism test, with hop accounting."""
        tree = self.tree
        self.stats.hops += abs(tree.depth(a) - tree.depth(b))
        ancestor, toward_a, toward_b = relation.lca_with_children(tree, a, b)
        self.stats.hops += tree.depth(a) - tree.depth(ancestor)
        if toward_a == ancestor or toward_b == ancestor:
            return False
        if tree.sibling_rank(toward_a) < tree.sibling_rank(toward_b):
            left_child = toward_a
        else:
            left_child = toward_b
        return tree.kind(left_child) is NodeKind.ASYNC

    def reset_stats(self) -> None:
        """Zero the counters (the memo table is kept)."""
        self.stats = EngineStats()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<LCAEngine layout={self.tree.layout_name} cache={self.cache_enabled} "
            f"queries={self.stats.queries} unique={self.stats.unique}>"
        )
