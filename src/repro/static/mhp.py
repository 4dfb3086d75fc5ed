"""Static may-happen-in-parallel over skeleton regions.

The SPD3 rule (:mod:`repro.dpst.relation`) applied to the *static* tree:
two distinct steps ``S1`` (left) and ``S2`` may run in parallel iff the
child of their LCA on the path toward ``S1`` is an async region.  Because
the static skeleton over-approximates the dynamic DPST -- whatever the
input, every dynamic step maps into some static step, and the mapping
preserves the finish/async nesting -- "statically serial" implies
"serial in every execution".

Two static-only extensions:

* **Replicated owners.**  A recursive task body is walked once, but every
  execution instantiates it many times; two steps owned by a marker in
  :attr:`StaticSkeleton.recursive_markers` (or one such step and itself)
  may always run in parallel across instances.
* **Self-parallelism.**  ``parallel(s, s)`` is meaningful here (unlike in
  the dynamic tree, where each step is one concrete instruction run):
  it holds when the step belongs to a replicated body or sits under a
  replicated async region.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.static.structure import ASYNC, StaticNode, StaticSkeleton


class MHPIndex:
    """May-happen-in-parallel queries over one static skeleton."""

    def __init__(self, skeleton: StaticSkeleton) -> None:
        self.skeleton = skeleton
        self._cache: Dict[Tuple[int, int], bool] = {}

    # -- queries -----------------------------------------------------------

    def parallel(self, first: StaticNode, second: StaticNode) -> bool:
        """May steps *first* and *second* execute in parallel?"""
        if first is second:
            return self.self_parallel(first)
        key = (min(first.index, second.index), max(first.index, second.index))
        cached = self._cache.get(key)
        if cached is None:
            cached = self._compute(first, second)
            self._cache[key] = cached
        return cached

    def self_parallel(self, step: StaticNode) -> bool:
        """May two dynamic instances of *step* execute in parallel?"""
        if self._replicated_owner(step):
            return True
        node: Optional[StaticNode] = step
        while node is not None:
            if node.kind == ASYNC and node.replicated:
                return True
            node = node.parent
        return False

    def serial(self, first: StaticNode, second: StaticNode) -> bool:
        return not self.parallel(first, second)

    def parallel_steps(self, step: StaticNode) -> List[StaticNode]:
        """Every step (possibly *step* itself) parallel with *step*."""
        return [
            other for other in self.skeleton.steps() if self.parallel(step, other)
        ]

    # -- internals ---------------------------------------------------------

    def _replicated_owner(self, step: StaticNode) -> bool:
        return (
            step.owner is not None
            and step.owner in self.skeleton.recursive_markers
        )

    def _compute(self, first: StaticNode, second: StaticNode) -> bool:
        # Cross-instance parallelism of a replicated body: two regions of
        # the same recursive task body may belong to different instances.
        if (
            first.owner is not None
            and first.owner == second.owner
            and first.owner in self.skeleton.recursive_markers
        ):
            return True
        ancestor, toward_first, toward_second = self._lca(first, second)
        if toward_first is ancestor or toward_second is ancestor:
            return False  # ancestor/descendant: strictly ordered
        left = (
            toward_first
            if toward_first.rank < toward_second.rank
            else toward_second
        )
        if left.kind == ASYNC:
            return True
        # A replicated async between the LCA and either step means that
        # step's whole instance family recurs; its copies are unordered
        # with respect to the other step's subtree.
        return self._replicated_between(first, ancestor) or self._replicated_between(
            second, ancestor
        )

    @staticmethod
    def _replicated_between(node: StaticNode, ancestor: StaticNode) -> bool:
        current: Optional[StaticNode] = node
        while current is not None and current is not ancestor:
            if current.kind == ASYNC and current.replicated:
                return True
            current = current.parent
        return False

    @staticmethod
    def _lca(
        first: StaticNode, second: StaticNode
    ) -> Tuple[StaticNode, StaticNode, StaticNode]:
        """``(lca, child_toward_first, child_toward_second)``; when one
        node is an ancestor of the other, its slot holds the LCA itself
        (mirroring :func:`repro.dpst.relation.lca_with_children`)."""
        a: Optional[StaticNode] = first
        b: Optional[StaticNode] = second
        child_a: Optional[StaticNode] = None
        child_b: Optional[StaticNode] = None
        while a is not None and b is not None and a.depth > b.depth:
            child_a, a = a, a.parent
        while a is not None and b is not None and b.depth > a.depth:
            child_b, b = b, b.parent
        while a is not b and a is not None and b is not None:
            child_a, a = a, a.parent
            child_b, b = b, b.parent
        assert a is not None and b is not None, "forest skeleton"
        return a, (a if child_a is None else child_a), (a if child_b is None else child_b)
