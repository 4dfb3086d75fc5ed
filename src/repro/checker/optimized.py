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

Dispatch follows Figure 6:

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

from typing import Dict, Hashable, Optional

from repro.checker.access import EMPTY_LOCKSET, AccessEntry, TwoAccessPattern
from repro.checker.annotations import AtomicAnnotations
from repro.checker.metadata import GlobalSpace, LocalCell, LocalSpace
from repro.checker.patterns import pattern_violated_by, triple_code
from repro.errors import CheckerError
from repro.report import READ, AtomicityViolation, ViolationReport
from repro.runtime.events import MemoryEvent, TaskEndEvent
from repro.runtime.observer import RuntimeObserver

Location = Hashable


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
        # The per-access hot path: the local-space lookup (with its step
        # advance) and Figure 7 are inlined, and a task's run of accesses
        # under one lockset shares one frozenset.
        location = event.location
        if self._annotations_trivial:
            key = location
        else:
            annotations = self._annotations
            if not annotations.is_checked(location):
                return
            key = annotations.metadata_key(location)
        self._accesses += 1
        task = event.task
        step = event.step
        # LocalSpace.cell_for, inlined.
        local = self._ls.get(task)
        if local is None:
            local = self._ls[task] = LocalSpace(step)
        elif local.step != step:
            self._cells_freed += local.advance(step)
        raw_lockset = event.lockset
        if not raw_lockset:
            locks = EMPTY_LOCKSET
        elif raw_lockset == local.raw_lockset:
            locks = local.lockset
        else:
            locks = local.lockset = frozenset(raw_lockset)
            local.raw_lockset = raw_lockset
        entry = AccessEntry(step, event.access_type, task, location, locks)
        cells = local._cells
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = LocalCell()
            had_prior = False
        else:
            had_prior = cell.read is not None or cell.write is not None
        space = self._gs.get(key)
        if space is None:
            # Figure 7 -- very first access to the location: seed the global
            # and local spaces.  No LCA query is performed here, which is
            # why ``blackscholes``-style programs (no repeated accesses per
            # step) issue zero LCA queries in Table 1.
            space = self._gs[key] = GlobalSpace()
            if entry.access_type == READ:
                space.R1 = entry
                cell.read = entry
            else:
                space.W1 = entry
                cell.write = entry
            space.version += 1
        elif not had_prior:
            self._handle_first_access_current_task(key, space, cell, entry)
        else:
            self._handle_non_first_access(key, space, cell, entry)

    # -- Figure 8 -----------------------------------------------------------------

    def _handle_first_access_current_task(
        self, key: Location, space: GlobalSpace, cell: LocalCell, entry: AccessEntry
    ) -> None:
        """First access by this step: it can only be an interleaver (A2).

        Paper mode reads the one pattern slot per kind directly; thorough
        mode also walks the overflow lists.
        """
        parallel = self._parallel
        if entry.access_type == READ:
            cell.read = entry
            # A read interleaver only breaks a write-write pair (W,R,W).
            if self.thorough:
                self._check_patterns_against(key, space, ("WW",), entry)
            elif space.WW is not None:
                self._check_pattern(key, space.WW, entry)
            space.update_single("R", entry, parallel)
        else:
            cell.write = entry
            # A write interleaver breaks every two-access pattern.
            if self.thorough:
                self._check_patterns_against(
                    key, space, ("WW", "RW", "RR", "WR"), entry
                )
            else:
                if space.WW is not None:
                    self._check_pattern(key, space.WW, entry)
                if space.RW is not None:
                    self._check_pattern(key, space.RW, entry)
                if space.RR is not None:
                    self._check_pattern(key, space.RR, entry)
                if space.WR is not None:
                    self._check_pattern(key, space.WR, entry)
            space.update_single("W", entry, parallel)

    # -- Figure 9 -----------------------------------------------------------------

    def _handle_non_first_access(
        self, key: Location, space: GlobalSpace, cell: LocalCell, entry: AccessEntry
    ) -> None:
        """Repeated access by this step: it closes two-access patterns (A1/A3).

        The ``cell.ver_*`` stamps skip re-running a check branch when the
        global space has not changed since this step last ran it with the
        same access kind -- the outcome is provably identical (the checks
        depend only on the step, the access types, and the space's
        contents), so this is a pure memoization (see
        :class:`repro.checker.metadata.GlobalSpace`).
        """
        parallel = self._parallel
        if entry.access_type == READ:
            if cell.read is not None:
                if cell.ver_rr == space.version:
                    self._memo_hits += 1
                elif cell.read.locks_disjoint(entry):
                    candidate = TwoAccessPattern(cell.read, entry)  # read-read
                    self._check_candidate_against_singles(
                        key, space, candidate, reads=False
                    )
                    self._note_promotion(
                        space.update_pattern("RR", candidate, parallel, self.thorough)
                    )
                    cell.ver_rr = space.version
            if cell.write is not None:
                if cell.ver_wr == space.version:
                    self._memo_hits += 1
                elif cell.write.locks_disjoint(entry):
                    candidate = TwoAccessPattern(cell.write, entry)  # write-read
                    self._check_candidate_against_singles(
                        key, space, candidate, reads=False
                    )
                    self._note_promotion(
                        space.update_pattern("WR", candidate, parallel, self.thorough)
                    )
                    cell.ver_wr = space.version
            if cell.ver_sr != space.version:
                space.update_single("R", entry, parallel)
                cell.ver_sr = space.version
            else:
                self._memo_hits += 1
            if cell.read is None:
                cell.read = entry
            if self.thorough:
                self._check_patterns_against(key, space, ("WW",), entry)
        else:
            if cell.read is not None:
                if cell.ver_rw == space.version:
                    self._memo_hits += 1
                elif cell.read.locks_disjoint(entry):
                    candidate = TwoAccessPattern(cell.read, entry)  # read-write
                    self._check_candidate_against_singles(
                        key, space, candidate, reads=False
                    )
                    self._note_promotion(
                        space.update_pattern("RW", candidate, parallel, self.thorough)
                    )
                    cell.ver_rw = space.version
            if cell.write is not None:
                if cell.ver_ww == space.version:
                    self._memo_hits += 1
                elif cell.write.locks_disjoint(entry):
                    candidate = TwoAccessPattern(cell.write, entry)  # write-write
                    self._check_candidate_against_singles(
                        key, space, candidate, reads=True
                    )
                    self._note_promotion(
                        space.update_pattern("WW", candidate, parallel, self.thorough)
                    )
                    cell.ver_ww = space.version
            if cell.ver_sw != space.version:
                space.update_single("W", entry, parallel)
                cell.ver_sw = space.version
            else:
                self._memo_hits += 1
            if cell.write is None:
                cell.write = entry
            if self.thorough:
                self._check_patterns_against(
                    key, space, ("WW", "RW", "RR", "WR"), entry
                )

    def _note_promotion(self, stored: bool) -> None:
        """Account one candidate's fate: promoted to the global space or
        dropped because a parallel occupant already covers its kind."""
        if stored:
            self._promotions += 1
        else:
            self._promotions_blocked += 1

    # -- triple checks ----------------------------------------------------------------

    def _check_patterns_against(
        self, key: Location, space: GlobalSpace, kinds, interleaver: AccessEntry
    ) -> None:
        """Every stored pattern of *kinds*, overflow included (thorough mode)."""
        for kind in kinds:
            for pattern in space.patterns(kind):
                self._check_pattern(key, pattern, interleaver)

    def _check_pattern(
        self, key: Location, pattern: TwoAccessPattern, interleaver: AccessEntry
    ) -> None:
        """Stored pattern (A1, A3) + current access as interleaver (A2)."""
        self._pattern_checks += 1
        step = pattern.first.step
        if step == interleaver.step:
            return
        if not self._parallel(step, interleaver.step):
            return
        if pattern_violated_by(pattern, interleaver):
            self._report(key, pattern, interleaver)

    def _check_candidate_against_singles(
        self,
        key: Location,
        space: GlobalSpace,
        candidate: TwoAccessPattern,
        reads: bool,
    ) -> None:
        """Candidate pattern (A1, A3) + stored single access as interleaver (A2).

        Only write singles can break RR/WR/RW candidates; WW candidates are
        additionally breakable by read singles (W,R,W) -- the exact checks
        of Figure 9.
        """
        parallel = self._parallel
        step = candidate.first.step
        if reads:
            singles = (space.W1, space.W2, space.R1, space.R2)
        else:
            singles = (space.W1, space.W2)
        for single in singles:
            if single is None or single.step == step:
                continue
            if not parallel(step, single.step):
                continue
            if pattern_violated_by(candidate, single):
                self._report(key, candidate, single)

    def _report(
        self, key: Location, pattern: TwoAccessPattern, interleaver: AccessEntry
    ) -> None:
        self.report.add(
            AtomicityViolation(
                location=key,
                first=pattern.first.info(),
                second=interleaver.info(),
                third=pattern.second.info(),
                pattern=triple_code(
                    pattern.first.access_type,
                    interleaver.access_type,
                    pattern.second.access_type,
                ),
                checker=self.checker_name,
            )
        )

    def on_task_end(self, event: TaskEndEvent) -> None:
        """A finished task never accesses memory again: drop its space."""
        local = self._ls.pop(event.task, None)
        if local is not None:
            self._cells_freed += local.cell_count()

    def compact(self) -> int:
        """The compaction protocol of
        :class:`repro.checker.streaming.StreamingChecker`.

        There is nothing left to evict: :meth:`on_memory` frees a task's
        cells when its step changes and :meth:`on_task_end` drops the
        task's space, so this always returns 0 cells.
        """
        return 0

    # -- metadata accounting (ablation ABL-META) ------------------------------------

    def total_global_entries(self) -> int:
        """Occupied global entries across all locations."""
        return sum(space.entry_count() for space in self._gs.values())

    def max_entries_per_location(self) -> int:
        """Largest global space; bounded by 12 in ``paper`` mode."""
        if not self._gs:
            return 0
        return max(space.entry_count() for space in self._gs.values())

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
