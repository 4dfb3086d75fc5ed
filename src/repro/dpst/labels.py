"""Label-based parallelism queries (the Mellor-Crummey lineage).

The paper's related work traces DPST race detection back to on-the-fly
schemes that attach *labels* to tasks so that "can these two run in
parallel?" becomes a label comparison instead of a tree walk
(Mellor-Crummey's offset-span labeling, SP-bags, ...).  This module
implements that alternative over the same DPST:

Every node carries a **path label**: the sequence of ``(sibling_rank,
is_async)`` pairs along its root path.  Labels grow by one entry per tree
level and are immutable once assigned.  For steps ``a`` and ``b``:

* if one label is a prefix of the other, the nodes are ancestor-related
  -> series;
* otherwise, at the first differing index, the entry with the smaller
  rank belongs to the left node, and (the SPD3 rule) the two are parallel
  iff *that* entry is an async child.

Trade-offs versus the LCA engine (measured by
``benchmarks/bench_label_engine.py``): queries touch only the two labels
(no tree access, no memo needed for correctness), but labels cost O(depth)
memory per node -- the very overhead the paper's flat-array DPST avoids.
:class:`LabelEngine` is a drop-in replacement for
:class:`~repro.dpst.lca.LCAEngine` (same ``parallel``/``series`` surface,
same statistics), selected with ``run_program(...,
parallel_engine="labels")``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dpst.base import DPSTBase
from repro.dpst.nodes import NodeKind, ROOT_ID
from repro.dpst.stats import EngineStats

#: One label entry: (sibling rank, is-async flag).
LabelEntry = Tuple[int, bool]
Label = Tuple[LabelEntry, ...]


def compute_label(tree: DPSTBase, node: int) -> Label:
    """The root-path label of *node* (root itself has the empty label)."""
    entries: List[LabelEntry] = []
    current = node
    while current != ROOT_ID:
        entries.append(
            (tree.sibling_rank(current), tree.kind(current) is NodeKind.ASYNC)
        )
        current = tree.parent(current)
    entries.reverse()
    return tuple(entries)


def labels_parallel(label_a: Label, label_b: Label) -> bool:
    """The SPD3 verdict from two labels alone."""
    if label_a == label_b:
        return False
    limit = min(len(label_a), len(label_b))
    for index in range(limit):
        entry_a = label_a[index]
        entry_b = label_b[index]
        if entry_a == entry_b:
            continue
        if entry_a[0] == entry_b[0]:
            # Same rank, different async flag: impossible in one tree.
            raise ValueError("labels from different trees")
        left = entry_a if entry_a[0] < entry_b[0] else entry_b
        return left[1]  # parallel iff the left branch is an async child
    # One path is a prefix of the other: ancestor/descendant.
    return False


class LabelEngine:
    """Drop-in parallelism engine computing verdicts from node labels.

    Labels are materialized lazily per node and cached (they are immutable
    because DPST paths never change).  The ``stats`` counters are the same
    :class:`~repro.dpst.stats.EngineStats` every engine carries, so
    Table 1 collection and the ``engine.*`` metrics work unchanged;
    ``hops`` counts label entries compared.
    """

    #: Interface marker checked by tests; mirrors LCAEngine.
    engine_name = "labels"
    cache_enabled = True

    def __init__(self, tree: DPSTBase, cache: bool = True) -> None:
        self.tree = tree
        self.cache_enabled = cache
        self.stats = EngineStats()
        self._labels: Dict[int, Label] = {}
        self._seen_pairs: Dict[Tuple[int, int], bool] = {}

    def label(self, node: int) -> Label:
        """The (cached) label of *node*; :class:`~repro.errors.DPSTError`
        for an id that is not a node of the tree."""
        cached = self._labels.get(node)
        if cached is None:
            self.tree.require_node(node)
            cached = compute_label(self.tree, node)
            self._labels[node] = cached
        return cached

    # -- LCAEngine-compatible surface -------------------------------------

    def parallel(self, a: int, b: int) -> bool:
        if a == b:
            return False
        key = (a, b) if a < b else (b, a)
        self.stats.queries += 1
        if self.cache_enabled:
            cached = self._seen_pairs.get(key)
            if cached is not None:
                return cached
            self.stats.unique += 1
            verdict = self._verdict(a, b)
            self._seen_pairs[key] = verdict
            return verdict
        if key not in self._seen_pairs:
            self.stats.unique += 1
            self._seen_pairs[key] = True  # presence marker
        return self._verdict(a, b)

    def series(self, a: int, b: int) -> bool:
        return a != b and not self.parallel(a, b)

    def precedes(self, a: int, b: int) -> bool:
        """Step *a* strictly before *b*: in series and left of it."""
        if a == b or self.parallel(a, b):
            return False
        label_a, label_b = self.label(a), self.label(b)
        if label_a == label_b[: len(label_a)]:
            return True   # a is an ancestor: it started first
        if label_b == label_a[: len(label_b)]:
            return False
        for entry_a, entry_b in zip(label_a, label_b):
            if entry_a != entry_b:
                return entry_a[0] < entry_b[0]
        return False  # pragma: no cover - unreachable

    def reset_stats(self) -> None:
        self.stats = EngineStats()

    # -- internals -----------------------------------------------------------

    def _verdict(self, a: int, b: int) -> bool:
        label_a = self.label(a)
        label_b = self.label(b)
        self.stats.hops += min(len(label_a), len(label_b))
        return labels_parallel(label_a, label_b)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<LabelEngine nodes_labeled={len(self._labels)} "
            f"queries={self.stats.queries}>"
        )
