"""DePa-style graded dag-path labels: O(1) parallelism queries.

Westrick, Wang & Acar ("DePa: Simple, Provably Efficient, and Practical
Order Maintenance for Task Parallelism", arXiv:2204.14168) label every
vertex of a fork-join dag with its *dag path* -- the sequence of child
choices from the root, one graded field per level -- packed into machine
integers.  Two labels answer the series/parallel question with a couple
of word operations: find the first level where the paths diverge and
look at the left branch's fork bit.  No tree walk, no clock join.

:class:`DePaEngine` adapts the idea to the DPST.  A node's label packs,
for each ancestor level, the field ``(sibling_rank << 1) | is_async``
into a fixed ``W``-bit slot, most significant slot nearest the root::

    code(child) = (code(parent) << W) | field(child)

Queries then reduce to integer arithmetic (all constant-time word
operations on CPython's big ints, with no per-level Python loop):

* truncate the deeper code to the shallower depth (one shift);
* equal codes mean ancestor/descendant -- series, ancestor first;
* otherwise ``xor`` exposes the first divergence from the root
  (``bit_length``), the two ``W``-bit fields there belong to distinct
  children of the LCA, and the SPD3 rule reads directly off them:
  **parallel iff the lower-ranked (left) field has its async bit set**,
  else the left side precedes.

Grading: ``W`` is uniform and grows when a sibling rank overflows it
(doubling, so rebuilds amortize away).  Growth re-seeds the label cache;
the verdict memo survives because verdicts are width-independent.
Labels are materialized lazily by walking up to the nearest labelled
ancestor, so total labelling work is one visit per node -- ``hops``
counts those visits, and a query over already-labelled nodes costs zero
hops, which is exactly the O(1) claim the benchmarks measure.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dpst.base import DPSTBase
from repro.dpst.nodes import NodeKind, ROOT_ID
from repro.dpst.stats import EngineStats


class DePaEngine:
    """Parallelism queries on packed dag-path labels.

    Same construction surface and statistics as every registered engine.
    ``hops`` counts label materializations (amortized-linear build work);
    queries over cached labels add none.
    """

    engine_name = "depa"

    #: Smallest field width: one rank bit plus the async flag.
    _MIN_WIDTH = 2

    def __init__(self, tree: DPSTBase, cache: bool = True) -> None:
        self.tree = tree
        self.cache_enabled = cache
        self.stats = EngineStats()
        self._width = self._MIN_WIDTH
        self._codes: Dict[int, int] = {ROOT_ID: 0}
        self._seen_pairs: Dict[Tuple[int, int], bool] = {}

    # -- engine surface ----------------------------------------------------

    def parallel(self, a: int, b: int) -> bool:
        """May nodes *a* and *b* logically execute in parallel?"""
        if a == b:
            return False
        key = (a, b) if a < b else (b, a)
        self.stats.queries += 1
        if self.cache_enabled:
            cached = self._seen_pairs.get(key)
            if cached is not None:
                return cached
            self.stats.unique += 1
            verdict = self._parallel_uncached(a, b)
            self._seen_pairs[key] = verdict
            return verdict
        if key not in self._seen_pairs:
            self.stats.unique += 1
            self._seen_pairs[key] = True  # presence marker only
        return self._parallel_uncached(a, b)

    def series(self, a: int, b: int) -> bool:
        """``True`` iff *a* and *b* are distinct and cannot run in parallel."""
        return a != b and not self.parallel(a, b)

    def precedes(self, a: int, b: int) -> bool:
        """``True`` iff *a* must complete before *b* starts."""
        if a == b or self.parallel(a, b):
            return False
        # Ordered; direction from the codes.
        code_a, code_b, depth_a, depth_b = self._aligned(a, b)
        if code_a == code_b:
            return depth_a < depth_b  # the ancestor precedes
        field_a, field_b = self._divergence(code_a, code_b)
        return (field_a >> 1) < (field_b >> 1)

    def reset_stats(self) -> None:
        """Zero the counters (labels and the verdict memo are kept)."""
        self.stats = EngineStats()

    # -- verdict core ------------------------------------------------------

    def _parallel_uncached(self, a: int, b: int) -> bool:
        code_a, code_b, _, _ = self._aligned(a, b)
        if code_a == code_b:
            return False  # ancestor/descendant: series
        field_a, field_b = self._divergence(code_a, code_b)
        left = field_a if field_a < field_b else field_b
        return bool(left & 1)

    def _aligned(self, a: int, b: int) -> Tuple[int, int, int, int]:
        """Both codes truncated to the shallower node's depth."""
        while True:
            # Materializing b's label can overflow the grading and re-seed
            # the cache, leaving the already-fetched code_a in the *old*
            # grading; retry until both codes share one width.
            width = self._width
            code_a = self._code(a)
            code_b = self._code(b)
            if self._width == width:
                break
        tree = self.tree
        depth_a = tree.depth(a)
        depth_b = tree.depth(b)
        if depth_a < depth_b:
            code_b >>= (depth_b - depth_a) * width
        elif depth_b < depth_a:
            code_a >>= (depth_a - depth_b) * width
        return code_a, code_b, depth_a, depth_b

    def _divergence(self, code_a: int, code_b: int) -> Tuple[int, int]:
        """The two fields at the first level (from the root) where the
        aligned codes differ -- children of the LCA, so distinct ranks."""
        width = self._width
        diff = code_a ^ code_b
        shift = ((diff.bit_length() - 1) // width) * width
        mask = (1 << width) - 1
        return (code_a >> shift) & mask, (code_b >> shift) & mask

    # -- label maintenance -------------------------------------------------

    def _code(self, node: int) -> int:
        """The (cached) packed dag-path label of *node*;
        :class:`~repro.errors.DPSTError` for an id that is not a node of
        the tree."""
        code = self._codes.get(node)
        if code is not None:
            return code
        self.tree.require_node(node)
        path = self._collect(node)
        max_rank = 0
        tree = self.tree
        for pending in path:
            rank = tree.sibling_rank(pending)
            if rank > max_rank:
                max_rank = rank
        needed = max(self._MIN_WIDTH, max_rank.bit_length() + 1)
        if needed > self._width:
            # Grow geometrically and re-seed: every cached label used the
            # old grading.  Verdicts already memoized stay valid.
            self._width = max(needed, self._width * 2)
            self._codes = {ROOT_ID: 0}
            path = self._collect(node)
        width = self._width
        code = self._codes[tree.parent(path[-1])] if path else self._codes[node]
        for pending in reversed(path):
            rank = tree.sibling_rank(pending)
            flag = 1 if tree.kind(pending) is NodeKind.ASYNC else 0
            code = (code << width) | (rank << 1) | flag
            self._codes[pending] = code
            self.stats.hops += 1
        return code

    def _collect(self, node: int) -> List[int]:
        """*node* and its unlabelled ancestors, deepest first."""
        path: List[int] = []
        codes = self._codes
        parent = self.tree.parent
        current = node
        while current not in codes:
            path.append(current)
            current = parent(current)
        return path

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<DePaEngine width={self._width} labelled={len(self._codes)} "
            f"queries={self.stats.queries}>"
        )
