"""Bottom-up per-function summaries over the static call graph.

A :class:`FunctionSummary` folds a function's *transitive* effects --
every access pattern it or any callee may perform, whether anything in
its call tree spawns/syncs, touches locks, lets the task context escape,
or calls something the resolver could not see.  Summaries are computed
callees-first over the Tarjan condensation from
:meth:`repro.static.callgraph.CallGraph.sccs`, with a fixpoint iteration
inside each SCC so mutual recursion converges (the domain is finite:
pattern sets only grow, booleans only flip one way).

The skeleton walker (:mod:`repro.static.structure`) consults these when
inlining would not terminate: a recursive helper whose summary is
*step-local* (no constructs, no locks, no escapes, no unresolved calls)
contributes exactly the accesses already walked, so deeper unrolling is
redundant and the skeleton stays exact; anything else degrades to the
summary's access patterns plus an approximation note.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.static.accesses import AccessPattern
from repro.static.callgraph import SPAWN, TEMPLATE, CallGraph


@dataclass(frozen=True)
class FunctionSummary:
    """Transitive effects of one function and everything it may call."""

    marker: str
    patterns: FrozenSet[AccessPattern]
    constructs: bool = False   # may spawn / sync / finish / run a template
    locks: bool = False        # may acquire or release locks
    escapes: bool = False      # ctx may escape the recognized discipline
    unresolved: int = 0        # unresolved call sites in the call tree
    recursive: bool = False    # participates in a call cycle

    @property
    def step_local(self) -> bool:
        """Pure straight-line ctx accesses: safe to stop unrolling at.

        A step-local call tree adds no DPST nodes and no lock-scope
        changes, so once the walker has materialized one full unrolling
        the deeper iterations repeat the same (step, lockset, access)
        triples and the skeleton is still exact.
        """
        return not (
            self.constructs or self.locks or self.escapes or self.unresolved
        )

    @property
    def resolved(self) -> bool:
        """Every access in the call tree is accounted for by a pattern."""
        return not (self.escapes or self.unresolved)


def compute_summaries(graph: CallGraph) -> Dict[str, FunctionSummary]:
    """Fold :class:`~repro.static.callgraph.DirectFacts` bottom-up.

    SCCs arrive callees-first, so every edge leaving a component lands
    on a finished summary; edges inside the component iterate to a
    fixpoint.  Spawn and template edges force ``constructs`` even when
    the callee itself is step-local -- the *call* creates DPST structure.
    """
    summaries: Dict[str, FunctionSummary] = {}
    for component in graph.sccs():
        members = set(component)
        cyclic = len(component) > 1 or any(
            site.callee == component[0]
            for site in graph.edges.get(component[0], [])
        )
        # Mutable working state per member.
        state = {
            marker: {
                "patterns": set(graph.facts[marker].patterns),
                "constructs": graph.facts[marker].constructs,
                "locks": graph.facts[marker].locks,
                "escapes": graph.facts[marker].escapes,
                "unresolved": graph.facts[marker].unresolved,
            }
            for marker in component
        }
        # Fold completed callee summaries in once; they cannot change.
        for marker in component:
            current = state[marker]
            for site in graph.edges.get(marker, []):
                if site.callee is None or site.callee in members:
                    continue
                callee = summaries.get(site.callee)
                if callee is None:  # pragma: no cover - defensive
                    current["unresolved"] += 1
                    continue
                current["patterns"] |= set(callee.patterns)
                current["locks"] |= callee.locks
                current["escapes"] |= callee.escapes
                current["unresolved"] += callee.unresolved
                if site.kind in (SPAWN, TEMPLATE):
                    current["constructs"] = True
                else:
                    current["constructs"] |= callee.constructs
        # Fixpoint over intra-component edges.
        changed = True
        while changed:
            changed = False
            for marker in component:
                current = state[marker]
                for site in graph.edges.get(marker, []):
                    if site.callee not in members:
                        continue
                    callee = state[site.callee]
                    before = (
                        len(current["patterns"]),
                        current["constructs"],
                        current["locks"],
                        current["escapes"],
                    )
                    current["patterns"] |= callee["patterns"]
                    current["locks"] |= callee["locks"]
                    current["escapes"] |= callee["escapes"]
                    if site.kind in (SPAWN, TEMPLATE):
                        current["constructs"] = True
                    else:
                        current["constructs"] |= callee["constructs"]
                    after = (
                        len(current["patterns"]),
                        current["constructs"],
                        current["locks"],
                        current["escapes"],
                    )
                    if after != before:
                        changed = True
        # Unresolved counts from intra-component callees: single pass is
        # enough for the boolean question "is anything unresolved".
        if cyclic:
            total_unresolved = sum(
                state[marker]["unresolved"] for marker in component
            )
            for marker in component:
                if total_unresolved and not state[marker]["unresolved"]:
                    state[marker]["unresolved"] = total_unresolved
        for marker in component:
            current = state[marker]
            summaries[marker] = FunctionSummary(
                marker=marker,
                patterns=frozenset(current["patterns"]),
                constructs=current["constructs"],
                locks=current["locks"],
                escapes=current["escapes"],
                unresolved=current["unresolved"],
                recursive=cyclic,
            )
    return summaries
