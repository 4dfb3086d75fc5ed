"""Vector-clock parallelism engine (the linear-time lineage).

Mathur & Viswanathan ("Atomicity Checking in Linear Time using Vector
Clocks", ASPLOS 2020) observe that the series-parallel questions a
dynamic checker asks can be answered from per-task vector clocks
maintained incrementally over spawn and finish events -- a *linear*
total number of clock operations, against the per-query tree walks of
the LCA engine.  :class:`VectorClockEngine` implements that idea over
the same DPST every other engine queries, so it is a drop-in
registry-backed replacement (``run_program(..., parallel_engine="vc")``).

How clocks are derived from the tree
------------------------------------
The DPST is a complete record of the serial elision: children of a scope
node appear left-to-right in the program order of the owning task.  The
engine replays that order with one mutable clock ("cursor") per task:

* the root task starts with ``{root: 1}``;
* a **step** child snapshots the owner's cursor, then the owner bumps
  its own epoch (every step gets a distinct epoch);
* an **async** child ``A`` snapshots ``cursor ∪ {A: 1}`` -- the spawned
  task's fresh clock -- and the owner bumps its epoch.  ``A``'s subtree
  is *not* visited: it is processed lazily, from its own cursor, if and
  when one of its nodes is queried;
* a **finish** child shares the owner's cursor while open.  When the
  replay must move past it (a right sibling is queried), the subtree is
  finalized and the final clocks of its direct async children are
  joined (pointwise max) into the owner's cursor -- exactly the
  happens-before edge a finish scope creates.

``a`` happens before ``b`` iff ``clock(b)[locus(a)] >= clock(a)[locus(a)]``
where ``locus(a)`` is the task that executed ``a`` (the nearest async
ancestor, or the root).  ``parallel`` is "neither direction".  Scope
*entry* nodes (finish/async) can share a snapshot with their first step
-- indistinguishable to clocks alone -- so mutually-ordered pairs fall
back to one structural :func:`repro.dpst.relation.left_of` walk; step
pairs, the checkers' hot path, never tie.

Laziness keeps the promise honest: every node is processed exactly once
(snapshot + at most one join contribution), so the total clock work is
linear in the tree size times the clock width, regardless of how many
queries are issued.  Queries after processing are two dictionary
lookups.

Supported growth: trees built by the runtime (or replayed traces),
where a finish subtree is complete before any right sibling exists --
the invariant the executors guarantee.  Static trees (built fully, then
queried) are always fine.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dpst import relation
from repro.dpst.base import DPSTBase
from repro.dpst.nodes import NodeKind, NULL_ID, ROOT_ID
from repro.dpst.stats import EngineStats

Clock = Dict[int, int]


class VectorClockEngine:
    """Parallelism queries answered from incrementally maintained clocks.

    Same construction surface and statistics as every registered engine;
    ``hops`` counts clock entries touched by snapshots and joins (the
    linear maintenance work), plus the two lookups per unique query.
    """

    engine_name = "vc"

    def __init__(self, tree: DPSTBase, cache: bool = True) -> None:
        self.tree = tree
        self.cache_enabled = cache
        self.stats = EngineStats()
        #: node -> frozen clock snapshot (never mutated after assignment).
        self._clocks: Dict[int, Clock] = {ROOT_ID: {ROOT_ID: 1}}
        #: scope node -> [next_child_index, mutable cursor clock].  Finish
        #: scopes share the cursor *dict* with their owning task's scope.
        self._cursors: Dict[int, List] = {ROOT_ID: [0, {ROOT_ID: 1}]}
        #: parent -> children in rank order (built by the id-order scan).
        self._children: Dict[int, List[int]] = {}
        #: node -> owning task (itself for asyncs and the root).
        self._locus: Dict[int, int] = {ROOT_ID: ROOT_ID}
        self._scanned = 1  # node ids folded into the child/locus index
        self._finalized: set = set()  # scopes whose replay is complete
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
        a_before, b_before = self._directions(a, b)
        if a_before and b_before:
            # Identical snapshots: a scope-entry chain (finish/async entry
            # and its first step share a clock).  One structural walk
            # breaks the tie; step pairs never reach this.
            return relation.left_of(self.tree, a, b)
        return a_before

    def reset_stats(self) -> None:
        """Zero the counters (clocks and the verdict memo are kept)."""
        self.stats = EngineStats()

    # -- verdict core ------------------------------------------------------

    def _parallel_uncached(self, a: int, b: int) -> bool:
        a_before, b_before = self._directions(a, b)
        return not (a_before or b_before)

    def _directions(self, a: int, b: int) -> Tuple[bool, bool]:
        """(a happens-before-or-ties b, b happens-before-or-ties a)."""
        clock_a = self._clock(a)
        clock_b = self._clock(b)
        self.stats.hops += 2
        locus_a = self._locus[a]
        locus_b = self._locus[b]
        return (
            clock_b.get(locus_a, 0) >= clock_a[locus_a],
            clock_a.get(locus_b, 0) >= clock_b[locus_b],
        )

    # -- clock maintenance -------------------------------------------------

    def _scan(self) -> None:
        """Fold newly created nodes into the child lists and locus map."""
        tree = self.tree
        size = len(tree)
        children = self._children
        locus = self._locus
        while self._scanned < size:
            node = self._scanned
            parent = tree.parent(node)
            children.setdefault(parent, []).append(node)
            if tree.kind(node) is NodeKind.ASYNC:
                locus[node] = node
            else:
                locus[node] = locus[parent]
            self._scanned += 1

    def _clock(self, node: int) -> Clock:
        """The (cached) clock snapshot of *node*;
        :class:`~repro.errors.DPSTError` for an id that is not a node of
        the tree."""
        got = self._clocks.get(node)
        if got is not None:
            return got
        self.tree.require_node(node)
        self._scan()
        # Descend from the deepest already-clocked ancestor.
        path: List[int] = []
        current = node
        while current not in self._clocks:
            path.append(current)
            current = self.tree.parent(current)
        for current in reversed(path):
            self._visit(current)
        return self._clocks[node]

    def _visit(self, node: int) -> None:
        """Assign *node*'s snapshot by replaying its scope up to its rank."""
        if node in self._clocks:
            return
        tree = self.tree
        parent = tree.parent(node)
        rank = tree.sibling_rank(node)
        self._advance(parent, rank)
        cursor = self._cursors[parent]
        clock = cursor[1]
        kind = tree.kind(node)
        self.stats.hops += len(clock)
        if kind is NodeKind.STEP:
            self._clocks[node] = dict(clock)
            owner = self._locus[node]
            clock[owner] = clock.get(owner, 0) + 1
            cursor[0] = rank + 1
        elif kind is NodeKind.ASYNC:
            snapshot = dict(clock)
            snapshot[node] = 1
            self._clocks[node] = snapshot
            self._cursors[node] = [0, dict(snapshot)]
            owner = self._locus[parent]
            clock[owner] = clock.get(owner, 0) + 1
            cursor[0] = rank + 1
        else:  # FINISH: enter without closing; the cursor dict is shared.
            self._clocks[node] = dict(clock)
            self._cursors[node] = [0, clock]
            # cursor[0] stays at `rank`: the scope is open until a right
            # sibling forces the close (see _advance).

    def _advance(self, scope: int, upto_rank: int) -> None:
        """Replay *scope*'s children with rank < *upto_rank* (closing
        any finish child that must be passed)."""
        cursor = self._cursors[scope]
        children = self._children.get(scope, ())
        tree = self.tree
        while cursor[0] < upto_rank:
            child = children[cursor[0]]
            kind = tree.kind(child)
            if kind is NodeKind.FINISH:
                self._visit(child)  # enter (idempotent)
                self._finalize(child)
                self._join_finish(child, cursor[1])
                cursor[0] += 1
            else:
                self._visit(child)  # steps/asyncs advance the index

    def _finalize(self, scope: int) -> None:
        """Fully replay *scope*'s (complete) subtree, iteratively.

        An explicit work stack stands in for recursion so deeply nested
        programs do not hit the interpreter's recursion limit.
        """
        stack = [scope]
        tree = self.tree
        while stack:
            current = stack[-1]
            cursor = self._cursors[current]
            children = self._children.get(current, ())
            blocked = False
            while cursor[0] < len(children):
                child = children[cursor[0]]
                kind = tree.kind(child)
                if kind is not NodeKind.FINISH:
                    self._visit(child)
                    continue
                self._visit(child)  # enter the nested finish
                if self._finish_pending(child):
                    stack.append(child)
                    blocked = True
                    break
                self._join_finish(child, cursor[1])
                cursor[0] += 1
            if blocked:
                continue
            # All direct children replayed; async children still need
            # their own subtrees finalized before a parent can join them.
            pending = [
                child
                for child in children
                if tree.kind(child) is NodeKind.ASYNC
                and self._scope_pending(child)
            ]
            if pending:
                stack.extend(pending)
                continue
            self._finalized.add(current)
            stack.pop()

    def _finish_pending(self, finish: int) -> bool:
        """Does closing *finish* still require subtree work?"""
        return self._scope_pending(finish)

    def _scope_pending(self, scope: int) -> bool:
        """``True`` while *scope*'s replay (or a descendant's) is unfinished."""
        if scope in self._finalized:
            return False
        tree = self.tree
        stack = [scope]
        visited = []
        while stack:
            current = stack.pop()
            if current in self._finalized:
                continue
            cursor = self._cursors.get(current)
            children = self._children.get(current, ())
            if cursor is None or cursor[0] < len(children):
                return True
            visited.append(current)
            for child in children:
                if tree.kind(child) is not NodeKind.STEP:
                    stack.append(child)
        self._finalized.update(visited)
        return False

    def _join_finish(self, finish: int, clock: Clock) -> None:
        """Join the final clocks of the async tasks *finish* waits for.

        A finish waits for its entire subtree, so the join covers the
        *async closure*: direct async children, plus asyncs they spawned
        with no intervening finish (those under a nested finish were
        already folded into the shared cursor chain when it closed).
        """
        tree = self.tree
        stack = [
            child
            for child in self._children.get(finish, ())
            if tree.kind(child) is NodeKind.ASYNC
        ]
        while stack:
            task = stack.pop()
            final = self._cursors[task][1]
            self.stats.hops += len(final)
            for key, epoch in final.items():
                if epoch > clock.get(key, 0):
                    clock[key] = epoch
            for child in self._children.get(task, ()):
                if tree.kind(child) is NodeKind.ASYNC:
                    stack.append(child)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<VectorClockEngine clocked={len(self._clocks)} "
            f"queries={self.stats.queries}>"
        )
