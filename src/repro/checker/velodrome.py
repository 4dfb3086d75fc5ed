"""Velodrome baseline, reimplemented at step-node granularity.

Velodrome (Flanagan, Freund & Yi, PLDI 2008) is a sound and complete
dynamic atomicity checker for *the observed trace*: it builds a
transactional happens-before graph -- one node per atomic region, one edge
per pair of conflicting accesses ordered by the trace -- and reports a
violation when the graph acquires a cycle.  Following the paper's
evaluation (Section 4), the reimplementation treats every DPST step node
as a transaction, so the two checkers verify the same atomicity
specification and their overheads are directly comparable (Figure 13).

The crucial semantic difference this reproduction demonstrates: Velodrome
only sees the schedule that actually ran.  Under a serial executor, step
nodes never interleave, the conflict graph is acyclic, and Velodrome
reports nothing -- it must be combined with an interleaving explorer
(re-running the program under many schedules) to find what the optimized
checker finds in one run.  Feed it an interleaved trace (e.g. from
:mod:`repro.trace.explore` or a work-stealing run) and it detects the
violations *of that trace*.

Implementation notes
--------------------
* Per location we track the last writing transaction and the set of
  reading transactions since that write; each access adds conflict edges
  from those prior transactions to the current one.
* Fork/join and program-order edges cannot participate in cycles in a
  totally ordered trace (a cycle needs transactions whose lifetimes
  overlap), so only conflict edges are materialized.
* Cycle detection is an incremental DFS on edge insertion, with the found
  path reported.  The original's transaction garbage collection is
  omitted -- traces here are bounded.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

from repro.checker.annotations import AtomicAnnotations
from repro.report import AccessInfo, TraceCycleViolation, ViolationReport
from repro.runtime.events import MemoryEvent
from repro.runtime.observer import RuntimeObserver

Location = Hashable


class VelodromeChecker(RuntimeObserver):
    """Trace-sensitive atomicity checking via transaction-graph cycles."""

    # Velodrome does not need parallelism queries, but building the DPST
    # at runtime keeps step-node identities meaningful (the runtime only
    # mints step ids while constructing the tree).  Offline replay of
    # events that already carry step ids needs no tree at all.
    requires_dpst = True
    requires_lca = False
    checker_name = "velodrome"

    def __init__(self) -> None:
        self.report = ViolationReport()
        self._annotations: Optional[AtomicAnnotations] = None
        self._annotations_trivial = True
        #: location -> transaction (step) of the last write
        self._last_writer: Dict[Location, int] = {}
        #: location -> transactions that read since the last write
        self._readers: Dict[Location, Set[int]] = {}
        #: edge adjacency (conflict + program order): u -> set of v
        self._succ: Dict[int, Set[int]] = {}
        #: task id -> its most recent transaction (step), for the
        #: program-order edges the original algorithm also maintains
        self._last_txn_of_task: Dict[int, int] = {}
        self.edge_count = 0
        #: Accesses analyzed (observability counter; see repro.obs).
        self._accesses = 0

    # -- observer wiring ----------------------------------------------------

    def on_run_begin(self, run) -> None:
        self._annotations = run.annotations or AtomicAnnotations()
        self._annotations_trivial = self._annotations.trivial

    def on_memory(self, event: MemoryEvent) -> None:
        if self._annotations_trivial:
            key = event.location
        else:
            annotations = self._annotations
            if not annotations.is_checked(event.location):
                return
            key = annotations.metadata_key(event.location)
        self._accesses += 1
        txn = event.step
        previous = self._last_txn_of_task.get(event.task)
        if previous is None or previous != txn:
            self._last_txn_of_task[event.task] = txn
            if previous is not None:
                # Program-order edge between consecutive transactions of one
                # task.  These cannot close a cycle in a totally ordered
                # trace, but they are part of Velodrome's happens-before
                # graph and contribute to its bookkeeping cost.
                self._succ.setdefault(previous, set()).add(txn)
                self.edge_count += 1
        if event.is_read:
            self._on_read(key, txn, event)
        else:
            self._on_write(key, txn, event)

    # -- conflict tracking -----------------------------------------------------

    def _on_read(self, key: Location, txn: int, event: MemoryEvent) -> None:
        writer = self._last_writer.get(key)
        if writer is not None and writer != txn:
            self._add_edge(writer, txn, key, event)
        self._readers.setdefault(key, set()).add(txn)

    def _on_write(self, key: Location, txn: int, event: MemoryEvent) -> None:
        writer = self._last_writer.get(key)
        if writer is not None and writer != txn:
            self._add_edge(writer, txn, key, event)
        for reader in self._readers.get(key, ()):
            if reader != txn:
                self._add_edge(reader, txn, key, event)
        self._last_writer[key] = txn
        readers = self._readers.get(key)
        if readers:
            readers.clear()

    # -- graph maintenance --------------------------------------------------------

    def _add_edge(self, src: int, dst: int, key: Location, event: MemoryEvent) -> None:
        """Insert conflict edge ``src -> dst``; report if it closes a cycle."""
        successors = self._succ.setdefault(src, set())
        if dst in successors:
            return
        successors.add(dst)
        self.edge_count += 1
        path = self._find_path(dst, src)
        if path is not None:
            cycle = tuple(path)
            self.report.add_cycle(
                TraceCycleViolation(
                    location=key,
                    cycle=cycle,
                    closing_access=AccessInfo.of(event),
                    checker=self.checker_name,
                )
            )

    def _find_path(self, start: int, goal: int) -> Optional[List[int]]:
        """DFS for a path ``start -> ... -> goal`` in the conflict graph."""
        stack: List[int] = [start]
        parents: Dict[int, Optional[int]] = {start: None}
        while stack:
            node = stack.pop()
            if node == goal:
                path = [node]
                while parents[node] is not None:
                    node = parents[node]  # type: ignore[assignment]
                    path.append(node)
                path.reverse()
                return path
            for succ in self._succ.get(node, ()):
                if succ not in parents:
                    parents[succ] = node
                    stack.append(succ)
        return None

    # -- introspection -----------------------------------------------------------

    def transaction_count(self) -> int:
        """Transactions that participate in at least one conflict edge."""
        nodes = set(self._succ)
        for successors in self._succ.values():
            nodes.update(successors)
        return len(nodes)

    def metrics(self) -> Dict[str, int]:
        """Canonical ``repro.obs`` counters.

        Velodrome is trace-order sensitive (``location_sharded`` is
        ``False``), so these only ever describe a single in-process run.
        """
        return {
            "checker.accesses_checked": self._accesses,
            "checker.velodrome.edges": self.edge_count,
            "checker.velodrome.transactions": self.transaction_count(),
            "report.violations": len(self.report),
            "report.raw_findings": self.report.raw_count,
        }
