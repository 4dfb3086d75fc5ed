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

from typing import Dict

from repro.dpst.base import DPSTBase
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
        #: ``hi * hi + lo`` (``0 <= lo < hi``) -> verdict, for pairs of
        #: nodes of the tree only.  One int per pair and no reference to the
        #: queried ints.  The pairs with ``hi == h`` take the keys ``h * h``
        #: to ``h * h + h - 1``, so no two pairs share a key, and below
        #: ``2**15`` nodes the key is a one-digit int, the cheapest kind to
        #: build, hash and store.  A pair whose ``hi`` is past the tree has
        #: a key no pair of nodes has, so it always misses and is refused
        #: there; a negative ``lo`` is refused before the lookup.
        self._parallel_memo: Dict[int, bool] = {}
        #: A lower bound of ``len(tree)`` (the tree only grows), refreshed
        #: when a miss names a larger id.
        self._nodes = len(tree)

    # -- queries ----------------------------------------------------------

    def parallel(self, a: int, b: int) -> bool:
        """May step nodes *a* and *b* logically execute in parallel?

        The memoized hot path of the whole analysis: a hit is one dict
        lookup; a miss checks the larger id against the tree and makes one
        layout call, :meth:`~repro.dpst.base.DPSTBase.parallel_walk`.
        Raises :class:`~repro.errors.DPSTError` for an id that is not a
        node of the tree.
        """
        if a == b:
            return False
        if a > b:
            a, b = b, a
        if a < 0:
            self.tree.require_node(a)  # raises
        key = b * b + a
        self.stats.queries += 1
        memo = self._parallel_memo
        cached = memo.get(key)
        if cached is not None and self.cache_enabled:
            return cached
        tree = self.tree
        if b >= self._nodes:
            self._nodes = len(tree)
            if b >= self._nodes:
                tree.require_node(b)  # raises
        verdict, hops = tree.parallel_walk(a, b)
        stats = self.stats
        stats.hops += hops
        if cached is None:
            # A new pair.  Uncached mode files it too, only to count it
            # (so Table 1 can be produced with the cache disabled); it
            # walks on every query.
            stats.unique += 1
            memo[key] = verdict
        return verdict

    def series(self, a: int, b: int) -> bool:
        """``True`` iff *a* and *b* are distinct and cannot run in parallel."""
        return a != b and not self.parallel(a, b)

    def lca(self, a: int, b: int) -> int:
        """Plain LCA (not memoized; rarely needed by clients directly)."""
        return relation.lca(self.tree, a, b)

    def precedes(self, a: int, b: int) -> bool:
        """``True`` iff step *a* must complete before step *b* starts."""
        return relation.precedes(self.tree, a, b)

    def reset_stats(self) -> None:
        """Zero the counters (the memo table is kept)."""
        self.stats = EngineStats()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<LCAEngine layout={self.tree.layout_name} cache={self.cache_enabled} "
            f"queries={self.stats.queries} unique={self.stats.unique}>"
        )
