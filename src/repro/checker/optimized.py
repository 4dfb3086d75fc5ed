"""The optimized atomicity checker (paper Figures 6-9 and Section 3.3).

Detects atomicity violations that can occur in *any* schedule for the given
input, from a single observed trace, using fixed-size metadata:

* a :class:`~repro.checker.metadata.GlobalSpace` of twelve access-history
  entries per checked location (R1/R2/W1/W2 singles + RR/RW/WR/WW
  two-access patterns), shared by all tasks;
* a :class:`~repro.checker.metadata.LocalSpace` per task holding the first
  read and first write of the current step to each location -- the interim
  buffer that turns a second access into a two-access pattern.  It is
  freed as soon as it is dead: its cells when the task moves to a new
  step, the whole space at the task's end event.

Every entry is the :class:`~repro.runtime.events.MemoryEvent` the checker
received: an access is stored, never copied.

Dispatch follows Figure 6, in one path per access type:

1. *first access to the location by any task* -- record the single-access
   pattern globally and the first read/write locally (Figure 7);
2. *first access by the current task (step)* -- the access can only be the
   interleaver ``A2`` of a triple, so check it against the stored
   two-access patterns, then install it into the single slots (Figure 8);
3. *non-first access* -- the access closes a two-access pattern with the
   local first read/write, which can only be the ``A1``/``A3`` pair of a
   triple, so check the candidate pattern against the stored single-access
   entries of parallel steps, then promote it to the global space
   (Figure 9).

Every check and slot update first compares the two steps: a step is in
series with itself, and the engine answers ``a == b`` without counting a
query, so the comparison saves a call and changes no counter.

Locks (Section 3.3): a candidate pattern is formed only when the versioned
locksets of its two accesses are disjoint -- i.e. the accesses lie in
different critical sections, so a parallel access can interleave between
them.  Lock versioning (fresh name on re-acquisition) is handled by the
runtime; the global space stores no lock information.

Modes
-----
``mode="paper"`` (default) is faithful to the published pseudocode: one
pattern slot per kind, replaced only by in-series candidates, and no
interleaver re-check on non-first accesses.  ``mode="thorough"`` keeps
overflow pattern lists and re-checks interleavers, making the checker
provably equivalent to :class:`~repro.checker.basic.BasicAtomicityChecker`
(property-tested); the difference only matters in rare 4-task topologies
documented in ``tests/test_opt_corner_cases.py``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.checker.annotations import AtomicAnnotations
from repro.checker.metadata import GlobalSpace, LocalCell, LocalSpace
from repro.checker.patterns import Pattern, triple_code
from repro.errors import CheckerError
from repro.report import READ, AccessInfo, AtomicityViolation, ViolationReport
from repro.runtime.events import MemoryEvent, TaskEndEvent
from repro.runtime.observer import RuntimeObserver

Location = Hashable

#: The pattern kinds a write interleaver breaks, in check order (all four;
#: a read interleaver breaks only ``WW``).
_WRITE_BREAKS = ("WW", "RW", "RR", "WR")


def _locks_disjoint(mine: Tuple[str, ...], theirs: Tuple[str, ...]) -> bool:
    """No common (versioned) lock in two non-empty locksets: the accesses
    are in different critical sections, so an interleaving access can
    separate them."""
    if mine is theirs:
        return False
    for lock in mine:
        if lock in theirs:
            return False
    return True


class OptAtomicityChecker(RuntimeObserver):
    """Figures 6-9: fixed-size global + local metadata spaces."""

    requires_dpst = True
    location_sharded = True
    checker_name = "optimized"

    def __init__(self, mode: str = "paper") -> None:
        if mode not in ("paper", "thorough"):
            raise ValueError(f"unknown mode {mode!r}; expected 'paper' or 'thorough'")
        self.mode = mode
        self.thorough = mode == "thorough"
        self.report = ViolationReport()
        self._gs: Dict[Location, GlobalSpace] = {}
        self._ls: Dict[int, LocalSpace] = {}
        #: Thorough mode's extra mutually-parallel patterns: key -> kind ->
        #: patterns beyond the global space's one slot pair per kind.
        self._overflow: Dict[Location, Dict[str, List[Pattern]]] = {}
        self._engine = None
        #: ``self._engine.parallel``, bound once per run.
        self._parallel = None
        self._annotations: Optional[AtomicAnnotations] = None
        self._annotations_trivial = True
        # Observability counters (plain ints on the hot path; surfaced
        # via metrics() and flushed by the pipeline -- see repro.obs).
        self._accesses = 0
        self._promotions = 0
        self._promotions_blocked = 0
        self._memo_hits = 0
        self._pattern_checks = 0
        self._cells_freed = 0

    # -- observer wiring ----------------------------------------------------

    def on_run_begin(self, run) -> None:
        engine = getattr(run, "engine", None)
        if engine is None or not callable(getattr(engine, "parallel", None)):
            raise CheckerError(
                "OptAtomicityChecker requires a parallelism engine "
                "(any repro.dpst.engines.ParallelismEngine)"
            )
        self._engine = engine
        self._parallel = engine.parallel
        self._annotations = run.annotations or AtomicAnnotations()
        self._annotations_trivial = self._annotations.trivial

    def on_memory(self, event: MemoryEvent) -> None:
        location = event.location
        if self._annotations_trivial:
            key = location
        else:
            annotations = self._annotations
            if not annotations.is_checked(location):
                return
            key = annotations.metadata_key(location)
        self._accesses += 1
        step = event.step
        local = self._ls.get(event.task)
        if local is None:
            local = self._ls[event.task] = LocalSpace(step)
        elif local.step != step:
            self._cells_freed += local.advance(step)
        space = self._gs.get(key)
        if space is None:
            # Figure 7 -- very first access to the location: seed the global
            # and local spaces.  No LCA query is performed here, which is
            # why ``blackscholes``-style programs (no repeated accesses per
            # step) issue zero LCA queries in Table 1.
            space = self._gs[key] = GlobalSpace()
            cell = local._cells[key] = LocalCell()
            if event.access_type == READ:
                space.R1 = cell.read = event
            else:
                space.W1 = cell.write = event
            space.version = 1
        elif event.access_type == READ:
            self._read(key, event, step, space, local._cells)
        else:
            self._write(key, event, step, space, local._cells)

    # -- the read path -------------------------------------------------------

    def _read(
        self,
        key: Location,
        event: MemoryEvent,
        step: int,
        space: GlobalSpace,
        cells: Dict[Location, LocalCell],
    ) -> None:
        """Figures 8 and 9 for a read of a location already seen."""
        parallel = self._parallel
        cell = cells.get(key)
        if cell is None:
            # Figure 8 -- the step's first access: it can only be an
            # interleaver (A2), and a read only breaks a write-write pair
            # (W, R, W).  Paper mode reads the one WW slot pair; thorough
            # mode also walks the overflow list.
            cell = cells[key] = LocalCell()
            cell.read = event
            if self.thorough:
                self._check_stored(key, ("WW",), event)
            elif space.WW1 is not None:
                self._check_pattern(key, space.WW1, space.WW3, event)
            slot = space.R1
            if slot is None or slot.step == step or not parallel(slot.step, step):
                space.R1 = event
                space.version += 1
            else:
                slot = space.R2
                if slot is None or slot.step == step or not parallel(slot.step, step):
                    space.R2 = event
                    space.version += 1
            return
        # Figure 9 -- a repeat by the step: it closes candidate patterns
        # (A1, A3) with the step's first read and first write.  A cell's
        # ``ver_*`` stamp skips a branch when the global space is unchanged
        # since the step last ran it for this access kind: the outcome
        # depends only on the step, the access types and the space's
        # contents, so the skip is a pure memoization.
        held = event.lockset
        first = cell.read
        if first is not None:
            if cell.ver_rr == space.version:
                self._memo_hits += 1
            elif not held or not first.lockset or _locks_disjoint(first.lockset, held):
                # RR candidate: only a write single breaks it (R, W, R).
                for single in (space.W1, space.W2):
                    if single is not None and single.step != step:
                        if parallel(step, single.step):
                            self._report(key, first, single, event)
                slot = space.RR1
                if slot is None or slot.step == step or not parallel(slot.step, step):
                    space.RR1 = first
                    space.RR3 = event
                    space.version += 1
                    self._promotions += 1
                else:
                    self._blocked(key, "RR", first, event)
                cell.ver_rr = space.version
        first = cell.write
        if first is not None:
            if cell.ver_wr == space.version:
                self._memo_hits += 1
            elif not held or not first.lockset or _locks_disjoint(first.lockset, held):
                # WR candidate: only a write single breaks it (W, W, R).
                for single in (space.W1, space.W2):
                    if single is not None and single.step != step:
                        if parallel(step, single.step):
                            self._report(key, first, single, event)
                slot = space.WR1
                if slot is None or slot.step == step or not parallel(slot.step, step):
                    space.WR1 = first
                    space.WR3 = event
                    space.version += 1
                    self._promotions += 1
                else:
                    self._blocked(key, "WR", first, event)
                cell.ver_wr = space.version
        if cell.ver_sr == space.version:
            self._memo_hits += 1
        else:
            slot = space.R1
            if slot is None or slot.step == step or not parallel(slot.step, step):
                space.R1 = event
                space.version += 1
            else:
                slot = space.R2
                if slot is None or slot.step == step or not parallel(slot.step, step):
                    space.R2 = event
                    space.version += 1
            cell.ver_sr = space.version
        if cell.read is None:
            cell.read = event
        if self.thorough:
            self._check_stored(key, ("WW",), event)

    # -- the write path ------------------------------------------------------

    def _write(
        self,
        key: Location,
        event: MemoryEvent,
        step: int,
        space: GlobalSpace,
        cells: Dict[Location, LocalCell],
    ) -> None:
        """Figures 8 and 9 for a write of a location already seen."""
        parallel = self._parallel
        cell = cells.get(key)
        if cell is None:
            # Figure 8 -- a write interleaver breaks every pattern kind.
            cell = cells[key] = LocalCell()
            cell.write = event
            if self.thorough:
                self._check_stored(key, _WRITE_BREAKS, event)
            else:
                if space.WW1 is not None:
                    self._check_pattern(key, space.WW1, space.WW3, event)
                if space.RW1 is not None:
                    self._check_pattern(key, space.RW1, space.RW3, event)
                if space.RR1 is not None:
                    self._check_pattern(key, space.RR1, space.RR3, event)
                if space.WR1 is not None:
                    self._check_pattern(key, space.WR1, space.WR3, event)
            slot = space.W1
            if slot is None or slot.step == step or not parallel(slot.step, step):
                space.W1 = event
                space.version += 1
            else:
                slot = space.W2
                if slot is None or slot.step == step or not parallel(slot.step, step):
                    space.W2 = event
                    space.version += 1
            return
        # Figure 9 (see _read).
        held = event.lockset
        first = cell.read
        if first is not None:
            if cell.ver_rw == space.version:
                self._memo_hits += 1
            elif not held or not first.lockset or _locks_disjoint(first.lockset, held):
                # RW candidate: only a write single breaks it (R, W, W).
                for single in (space.W1, space.W2):
                    if single is not None and single.step != step:
                        if parallel(step, single.step):
                            self._report(key, first, single, event)
                slot = space.RW1
                if slot is None or slot.step == step or not parallel(slot.step, step):
                    space.RW1 = first
                    space.RW3 = event
                    space.version += 1
                    self._promotions += 1
                else:
                    self._blocked(key, "RW", first, event)
                cell.ver_rw = space.version
        first = cell.write
        if first is not None:
            if cell.ver_ww == space.version:
                self._memo_hits += 1
            elif not held or not first.lockset or _locks_disjoint(first.lockset, held):
                # WW candidate: any single breaks it (W, W, W) / (W, R, W).
                for single in (space.W1, space.W2, space.R1, space.R2):
                    if single is not None and single.step != step:
                        if parallel(step, single.step):
                            self._report(key, first, single, event)
                slot = space.WW1
                if slot is None or slot.step == step or not parallel(slot.step, step):
                    space.WW1 = first
                    space.WW3 = event
                    space.version += 1
                    self._promotions += 1
                else:
                    self._blocked(key, "WW", first, event)
                cell.ver_ww = space.version
        if cell.ver_sw == space.version:
            self._memo_hits += 1
        else:
            slot = space.W1
            if slot is None or slot.step == step or not parallel(slot.step, step):
                space.W1 = event
                space.version += 1
            else:
                slot = space.W2
                if slot is None or slot.step == step or not parallel(slot.step, step):
                    space.W2 = event
                    space.version += 1
            cell.ver_sw = space.version
        if cell.write is None:
            cell.write = event
        if self.thorough:
            self._check_stored(key, _WRITE_BREAKS, event)

    # -- promotion ------------------------------------------------------------

    def _blocked(
        self, key: Location, kind: str, first: MemoryEvent, third: MemoryEvent
    ) -> None:
        """Account a candidate whose kind's slot pair holds a parallel
        pattern: paper mode drops it, thorough mode may keep it."""
        if self.thorough and self._keep_overflow(key, kind, first, third):
            self._promotions += 1
        else:
            self._promotions_blocked += 1

    def _keep_overflow(
        self, key: Location, kind: str, first: MemoryEvent, third: MemoryEvent
    ) -> bool:
        """Thorough mode: append the candidate to its kind's overflow list,
        in place of a stored pattern in series with it, unless its step
        already stored one of this kind.  Returns whether it was kept."""
        step = first.step
        extras = self._overflow.setdefault(key, {}).setdefault(kind, [])
        for index, (stored, _) in enumerate(extras):
            if stored.step == step:
                return False
            if not self._parallel(stored.step, step):
                del extras[index]
                break
        extras.append((first, third))
        self._gs[key].version += 1
        return True

    # -- triple checks --------------------------------------------------------

    def patterns(self, key: Location, kind: str) -> Iterator[Pattern]:
        """Every stored ``(A1, A3)`` pattern of *kind* for *key*: the
        global space's slot pair, then thorough mode's overflow."""
        space = self._gs.get(key)
        if space is None:
            return
        first = getattr(space, kind + "1")
        if first is not None:
            yield first, getattr(space, kind + "3")
        yield from self._overflow.get(key, {}).get(kind, ())

    def _check_stored(
        self, key: Location, kinds: Tuple[str, ...], interleaver: MemoryEvent
    ) -> None:
        """Every stored pattern of *kinds*, overflow included (thorough mode)."""
        for kind in kinds:
            for first, third in self.patterns(key, kind):
                self._check_pattern(key, first, third, interleaver)

    def _check_pattern(
        self,
        key: Location,
        first: MemoryEvent,
        third: MemoryEvent,
        interleaver: MemoryEvent,
    ) -> None:
        """Stored pattern (A1, A3) + current access as interleaver (A2).

        Callers pass only the kinds *interleaver*'s type breaks, so a
        parallel interleaver is always a violation.
        """
        self._pattern_checks += 1
        step = first.step
        if step != interleaver.step and self._parallel(step, interleaver.step):
            self._report(key, first, interleaver, third)

    def _report(
        self,
        key: Location,
        first: MemoryEvent,
        second: MemoryEvent,
        third: MemoryEvent,
    ) -> None:
        self.report.add(
            AtomicityViolation(
                location=key,
                first=AccessInfo.of(first),
                second=AccessInfo.of(second),
                third=AccessInfo.of(third),
                pattern=triple_code(
                    first.access_type, second.access_type, third.access_type
                ),
                checker=self.checker_name,
            )
        )

    def on_task_end(self, event: TaskEndEvent) -> None:
        """A finished task never accesses memory again: drop its space."""
        local = self._ls.pop(event.task, None)
        if local is not None:
            self._cells_freed += local.cell_count()

    # -- metadata accounting (ablation ABL-META) ------------------------------------

    def _entries(self, key: Location, space: GlobalSpace) -> int:
        overflow = self._overflow.get(key)
        extra = 0 if overflow is None else sum(len(p) for p in overflow.values())
        return space.entry_count() + 2 * extra

    def total_global_entries(self) -> int:
        """Occupied global entries across all locations."""
        return sum(self._entries(key, space) for key, space in self._gs.items())

    def max_entries_per_location(self) -> int:
        """Largest global space; bounded by 12 in ``paper`` mode."""
        if not self._gs:
            return 0
        return max(self._entries(key, space) for key, space in self._gs.items())

    def total_local_entries(self) -> int:
        """Occupied local entries across all tasks."""
        return sum(space.entry_count() for space in self._ls.values())

    def tracked_locations(self) -> int:
        """Number of locations with a global space."""
        return len(self._gs)

    # -- observability (repro.obs metric registry) ---------------------------------

    def metrics(self) -> Dict[str, int]:
        """Accumulated counters under the canonical ``repro.obs`` names.

        Every value is a per-location (or per-finding) total, so summing
        the mapping across location-disjoint shards reproduces the
        in-process numbers exactly -- the invariant
        ``tests/test_metrics_sharded.py`` pins across the 36-program
        suite.
        """
        return {
            "checker.accesses_checked": self._accesses,
            "checker.optimized.promotions": self._promotions,
            "checker.optimized.promotions_blocked": self._promotions_blocked,
            "checker.optimized.memo_hits": self._memo_hits,
            "checker.optimized.pattern_checks": self._pattern_checks,
            "checker.optimized.global_entries": self.total_global_entries(),
            "checker.optimized.local_entries": self.total_local_entries(),
            "checker.optimized.cells_freed": self._cells_freed,
            "checker.optimized.tracked_locations": self.tracked_locations(),
            "report.violations": len(self.report),
            "report.raw_findings": self.report.raw_count,
        }
