"""Array-overlay DPST (the paper's optimized layout).

Instead of separately allocated node objects, the whole tree lives in a few
parallel flat lists indexed by node id: kind, parent index, depth, and
sibling rank.  Insertion is an append to each list; an LCA walk is pure
integer indexing with no pointer indirection and no per-node allocation.
This mirrors the paper's "DPST overlaid in a linear array of nodes, each
node maintains an index to the parent" optimization, which Figure 14 shows
reduces checking overhead from 5.1x to 4.2x on their C++ prototype.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.dpst.base import DPSTBase
from repro.dpst.nodes import NodeKind, NULL_ID, ROOT_ID
from repro.errors import DPSTError

#: Node kinds indexed by their int value.
_KINDS = tuple(sorted(NodeKind))


class ArrayDPST(DPSTBase):
    """DPST stored as parallel flat arrays."""

    layout_name = "array"

    def __init__(self) -> None:
        # Root finish node occupies index 0 of every array.  Kinds are
        # stored as the NodeKind members themselves: in CPython a list of
        # enum references costs the same as a list of ints, and it avoids
        # a by-value enum lookup on every kind() call.
        self._kinds: List[NodeKind] = [NodeKind.FINISH]
        self._parents: List[int] = [NULL_ID]
        self._depths: List[int] = [0]
        self._ranks: List[int] = [0]
        #: Number of children per node; gives O(1) sibling-rank assignment.
        self._child_counts: List[int] = [0]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_arrays(
        cls, kinds: Sequence[int], parents: Sequence[int]
    ) -> "ArrayDPST":
        """The tree whose node ``i`` has kind ``kinds[i]`` and parent
        ``parents[i]``, built in one pass over the arrays.

        Checks what :meth:`add_node` checks, node by node, and the root
        that :meth:`__init__` makes: node 0 is a finish node with parent
        :data:`NULL_ID`, and every later parent is an earlier node that is
        not a step.  Kinds and parents must be ``int`` exactly -- ``True``
        or ``1.0`` is not a kind -- so a tree read from a file is the tree
        that was written.  Raises :class:`DPSTError` naming the first bad
        node.
        """
        size = len(kinds)
        if len(parents) != size:
            raise DPSTError(f"{size} kinds but {len(parents)} parents")
        if (
            not size
            or kinds[ROOT_ID].__class__ is not int
            or kinds[ROOT_ID] != NodeKind.FINISH
            or parents[ROOT_ID].__class__ is not int
            or parents[ROOT_ID] != NULL_ID
        ):
            raise DPSTError(
                f"node {ROOT_ID} must be a finish root with parent {NULL_ID}"
            )
        step, n_kinds = NodeKind.STEP.value, len(_KINDS)
        depths = [0] * size
        ranks = [0] * size
        child_counts = [0] * size
        for node in range(1, size):
            kind = kinds[node]
            parent = parents[node]
            if kind.__class__ is not int or not 0 <= kind < n_kinds:
                raise DPSTError(f"node {node} has kind {kind!r}, not a NodeKind")
            if parent.__class__ is not int or not 0 <= parent < node:
                raise DPSTError(f"node {node} has unknown parent node id {parent!r}")
            if kinds[parent] == step:
                raise DPSTError(
                    f"node {node} is a child of step node {parent}: "
                    "steps are leaves"
                )
            depths[node] = depths[parent] + 1
            ranks[node] = child_counts[parent]
            child_counts[parent] += 1
        tree = cls()
        tree._kinds = [_KINDS[kind] for kind in kinds]
        tree._parents = list(parents)
        tree._depths = depths
        tree._ranks = ranks
        tree._child_counts = child_counts
        return tree

    def add_node(self, parent: int, kind: NodeKind) -> int:
        self._check_parent(parent, len(self._kinds))
        node_id = len(self._kinds)
        self._kinds.append(kind)
        self._parents.append(parent)
        self._depths.append(self._depths[parent] + 1)
        self._ranks.append(self._child_counts[parent])
        self._child_counts[parent] += 1
        self._child_counts.append(0)
        return node_id

    # -- accessors -----------------------------------------------------------

    def kind(self, node: int) -> NodeKind:
        return self._kinds[node]

    def parent(self, node: int) -> int:
        return self._parents[node]

    def depth(self, node: int) -> int:
        return self._depths[node]

    def sibling_rank(self, node: int) -> int:
        return self._ranks[node]

    def __len__(self) -> int:
        return len(self._kinds)

    # -- layout-specific query ------------------------------------------------

    def lca_with_children(self, a: int, b: int) -> tuple:
        """Index-walking LCA returning ``(lca, child_toward_a, child_toward_b)``.

        Same contract as :meth:`LinkedDPST.lca_with_children`, but the walk
        touches only the flat ``_parents``/``_depths`` integer lists.
        """
        parents = self._parents
        depths = self._depths
        child_a = -1
        child_b = -1
        depth_a = depths[a]
        depth_b = depths[b]
        while depth_a > depth_b:
            child_a = a
            a = parents[a]
            depth_a -= 1
        while depth_b > depth_a:
            child_b = b
            b = parents[b]
            depth_b -= 1
        while a != b:
            child_a = a
            child_b = b
            a = parents[a]
            b = parents[b]
        toward_a = a if child_a == -1 else child_a
        toward_b = a if child_b == -1 else child_b
        return a, toward_a, toward_b

    def parallel_walk(self, a: int, b: int) -> Tuple[bool, int]:
        ancestor, toward_a, toward_b = self.lca_with_children(a, b)
        depths = self._depths
        depth_a = depths[a]
        climb = depth_a - depths[b]
        hops = (climb if climb > 0 else -climb) + depth_a - depths[ancestor]
        if toward_a == ancestor or toward_b == ancestor:
            return False, hops  # ancestor/descendant: strictly ordered
        ranks = self._ranks
        left = toward_a if ranks[toward_a] < ranks[toward_b] else toward_b
        return self._kinds[left] is NodeKind.ASYNC, hops
