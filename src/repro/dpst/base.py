"""Abstract interface shared by the two DPST layouts.

The interface is deliberately minimal -- insertion, the per-node accessors
(parent, depth, kind, sibling rank) and :meth:`DPSTBase.parallel_walk`, the
LCA engine's one call per cache miss.  :mod:`repro.dpst.relation` implements
the series-parallel logic once over the accessors, as the reference the
walks are tested against; each layout's walk reads its own storage, which is
what the paper's Figure 14 ablation varies: only the memory layout differs.

Structural invariants enforced at insertion time:

* the root is a finish node and never re-parented;
* children may only be added under async or finish nodes (steps are leaves);
* a node's parent and its rank among its siblings are immutable -- the DPST
  only ever *grows*, so paths to the root are stable, which is what makes
  concurrent queries sound in the original SPD3 work.
"""

from __future__ import annotations

import abc
from typing import Iterator, List, Tuple

from repro.dpst.nodes import NodeKind, NULL_ID, ROOT_ID
from repro.errors import DPSTError


class DPSTBase(abc.ABC):
    """Common behaviour of :class:`LinkedDPST` and :class:`ArrayDPST`."""

    #: Human-readable layout name; used by benchmarks and reprs.
    layout_name = "abstract"

    # -- construction ------------------------------------------------------

    @abc.abstractmethod
    def add_node(self, parent: int, kind: NodeKind) -> int:
        """Append a new child of *parent* with the given *kind*.

        The new node becomes the rightmost child of *parent*; its id is the
        next dense integer.  Raises :class:`DPSTError` when *parent* does
        not exist or is a step node.
        """

    # -- per-node accessors -------------------------------------------------

    @abc.abstractmethod
    def kind(self, node: int) -> NodeKind:
        """The :class:`NodeKind` of *node*."""

    @abc.abstractmethod
    def parent(self, node: int) -> int:
        """Parent id of *node*; :data:`NULL_ID` for the root."""

    @abc.abstractmethod
    def depth(self, node: int) -> int:
        """Distance from the root (root has depth 0)."""

    @abc.abstractmethod
    def sibling_rank(self, node: int) -> int:
        """Zero-based position of *node* among its parent's children.

        Children are appended left-to-right in the program order of the
        controlling task, so comparing ranks of two children of one node
        gives their left-to-right order.
        """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Total number of nodes (including the root)."""

    # -- the engine's walk ---------------------------------------------------

    @abc.abstractmethod
    def parallel_walk(self, a: int, b: int) -> Tuple[bool, int]:
        """``(parallel, hops)`` for nodes *a* and *b*, in one call.

        ``parallel`` is :func:`repro.dpst.relation.parallel` for
        ``a != b``; ``hops`` is the walk's cost in the engine's terms,
        ``|depth(a) - depth(b)| + depth(a) - depth(lca(a, b))``.  This is
        the whole miss path of :class:`repro.dpst.lca.LCAEngine`, which
        passes the smaller id as *a*; each layout builds it on its own
        ``lca_with_children`` walk.  Ids are not checked: the engine
        refuses ids outside the tree before it calls.
        """

    # -- shared helpers ------------------------------------------------------

    def _check_parent(self, parent: int, size: int) -> None:
        """Validate an insertion parent; shared by both layouts."""
        if parent < 0 or parent >= size:
            raise DPSTError(f"unknown parent node id {parent}")
        if self.kind(parent) is NodeKind.STEP:
            raise DPSTError(
                f"cannot add a child under step node {parent}: steps are leaves"
            )

    def is_step(self, node: int) -> bool:
        """``True`` iff *node* is a step (leaf) node."""
        return self.kind(node) is NodeKind.STEP

    def nodes(self) -> Iterator[int]:
        """Iterate over all node ids in insertion order."""
        return iter(range(len(self)))

    def ancestors(self, node: int) -> Iterator[int]:
        """Yield the proper ancestors of *node*, nearest first."""
        current = self.parent(node)
        while current != NULL_ID:
            yield current
            current = self.parent(current)

    def is_ancestor(self, candidate: int, node: int) -> bool:
        """``True`` iff *candidate* is *node* or a proper ancestor of it."""
        current = node
        candidate_depth = self.depth(candidate)
        while self.depth(current) > candidate_depth:
            current = self.parent(current)
        return current == candidate

    def path_to_root(self, node: int) -> List[int]:
        """The node ids from *node* (inclusive) up to the root."""
        return [node, *self.ancestors(node)]

    def children(self, node: int) -> List[int]:
        """Children of *node*, left to right.

        Provided as a generic (linear-scan) implementation; layouts that
        store child lists override it with an O(#children) version.
        """
        found = [child for child in self.nodes() if self.parent(child) == node]
        found.sort(key=self.sibling_rank)
        return found

    def step_nodes(self) -> List[int]:
        """All step-node ids, in insertion order."""
        return [node for node in self.nodes() if self.is_step(node)]

    def validate(self) -> None:
        """Check every structural invariant; raises :class:`DPSTError`.

        Intended for tests and debugging, not hot paths: runs in O(n).
        """
        if len(self) == 0:
            raise DPSTError("DPST has no root")
        if self.kind(ROOT_ID) is not NodeKind.FINISH:
            raise DPSTError("root must be a finish node")
        if self.parent(ROOT_ID) != NULL_ID:
            raise DPSTError("root must have NULL parent")
        ranks: dict = {}
        for node in self.nodes():
            if node == ROOT_ID:
                continue
            parent = self.parent(node)
            if not 0 <= parent < len(self):
                raise DPSTError(f"node {node} has out-of-range parent {parent}")
            if parent >= node:
                raise DPSTError(
                    f"node {node} has parent {parent} inserted after it; "
                    "children must be added after their parent"
                )
            if self.kind(parent) is NodeKind.STEP:
                raise DPSTError(f"step node {parent} has child {node}")
            if self.depth(node) != self.depth(parent) + 1:
                raise DPSTError(f"node {node} has inconsistent depth")
            expected_rank = ranks.get(parent, 0)
            if self.sibling_rank(node) != expected_rank:
                raise DPSTError(
                    f"node {node} has sibling rank {self.sibling_rank(node)}, "
                    f"expected {expected_rank}"
                )
            ranks[parent] = expected_rank + 1

    def dump(self) -> str:
        """Render the tree as an indented text diagram (tests/debugging)."""
        lines: List[str] = []

        def visit(node: int, indent: int) -> None:
            label = f"{self.kind(node).short()}{node}"
            lines.append("  " * indent + label)
            for child in self.children(node):
                visit(child, indent + 1)

        visit(ROOT_ID, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} nodes={len(self)}>"
