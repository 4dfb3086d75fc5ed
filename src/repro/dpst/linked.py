"""Pointer-based DPST (the paper's Figure 14 baseline).

Each node is a small Python object holding a reference to its parent and a
list of children.  This is the "textbook" representation: simple, but every
hop of an LCA walk chases a pointer to a separately allocated object, which
on the paper's C++ prototype (and, in miniature, on CPython) costs locality
and allocation time compared to the array overlay of
:class:`repro.dpst.array.ArrayDPST`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.dpst.base import DPSTBase
from repro.dpst.nodes import NodeKind, NULL_ID, ROOT_ID


class _Node:
    """One linked DPST node.

    ``__slots__`` keeps the per-node footprint down; the point of this class
    is to model a *linked* layout, not to be gratuitously slow.
    """

    __slots__ = ("node_id", "kind", "parent", "children", "depth", "rank")

    def __init__(
        self,
        node_id: int,
        kind: NodeKind,
        parent: Optional["_Node"],
    ) -> None:
        self.node_id = node_id
        self.kind = kind
        self.parent = parent
        self.children: List[_Node] = []
        if parent is None:
            self.depth = 0
            self.rank = 0
        else:
            self.depth = parent.depth + 1
            self.rank = len(parent.children)
            parent.children.append(self)


class LinkedDPST(DPSTBase):
    """DPST stored as linked node objects."""

    layout_name = "linked"

    def __init__(self) -> None:
        root = _Node(ROOT_ID, NodeKind.FINISH, None)
        #: id -> node table, needed because the public interface speaks in
        #: integer ids.  The *traversals* still go through object pointers.
        self._by_id: List[_Node] = [root]

    # -- construction ------------------------------------------------------

    def add_node(self, parent: int, kind: NodeKind) -> int:
        self._check_parent(parent, len(self._by_id))
        node_id = len(self._by_id)
        node = _Node(node_id, kind, self._by_id[parent])
        self._by_id.append(node)
        return node_id

    # -- accessors -----------------------------------------------------------

    def kind(self, node: int) -> NodeKind:
        return self._by_id[node].kind

    def parent(self, node: int) -> int:
        parent = self._by_id[node].parent
        return NULL_ID if parent is None else parent.node_id

    def depth(self, node: int) -> int:
        return self._by_id[node].depth

    def sibling_rank(self, node: int) -> int:
        return self._by_id[node].rank

    def children(self, node: int) -> List[int]:
        return [child.node_id for child in self._by_id[node].children]

    def __len__(self) -> int:
        return len(self._by_id)

    # -- layout-specific query ------------------------------------------------

    def lca_with_children(self, a: int, b: int) -> tuple:
        """Pointer-chasing LCA returning ``(lca, child_toward_a, child_toward_b)``.

        ``child_toward_x`` is the id of the immediate child of the LCA lying
        on the path to ``x``, or the LCA itself when ``x`` *is* the LCA.
        This is the hot query the Figure 14 ablation measures: here it walks
        node objects, in :class:`ArrayDPST` it walks flat integer arrays.
        """
        node_a = self._by_id[a]
        node_b = self._by_id[b]
        child_a: Optional[_Node] = None
        child_b: Optional[_Node] = None
        while node_a.depth > node_b.depth:
            child_a = node_a
            node_a = node_a.parent  # type: ignore[assignment]
        while node_b.depth > node_a.depth:
            child_b = node_b
            node_b = node_b.parent  # type: ignore[assignment]
        while node_a is not node_b:
            child_a = node_a
            child_b = node_b
            node_a = node_a.parent  # type: ignore[assignment]
            node_b = node_b.parent  # type: ignore[assignment]
        lca_id = node_a.node_id
        toward_a = lca_id if child_a is None else child_a.node_id
        toward_b = lca_id if child_b is None else child_b.node_id
        return lca_id, toward_a, toward_b

    def parallel_walk(self, a: int, b: int) -> Tuple[bool, int]:
        ancestor, toward_a, toward_b = self.lca_with_children(a, b)
        by_id = self._by_id
        depth_a = by_id[a].depth
        climb = depth_a - by_id[b].depth
        hops = (climb if climb > 0 else -climb) + depth_a - by_id[ancestor].depth
        if toward_a == ancestor or toward_b == ancestor:
            return False, hops  # ancestor/descendant: strictly ordered
        node_a = by_id[toward_a]
        node_b = by_id[toward_b]
        left = node_a if node_a.rank < node_b.rank else node_b
        return left.kind is NodeKind.ASYNC, hops
