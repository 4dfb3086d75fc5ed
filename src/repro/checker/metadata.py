"""Fixed-size metadata spaces for the optimized checker (Section 3.2.1).

Global space
------------
Twelve access-history entries per checked location (or per multi-variable
group):

* four *single-access* entries -- ``R1``, ``R2``, ``W1``, ``W2`` -- holding
  two distinct reads and two distinct writes by step nodes that can execute
  in parallel (when both slots of a kind are occupied);
* four *two-access* patterns -- ``RR``, ``RW``, ``WR``, ``WW`` -- each a
  pair of accesses performed by one step node, i.e. eight entries.

Local space
-----------
Per task and location, the first read and the first write performed by the
task's *current step node*.  The local space is the interim buffer holding
a first access until a second access by the same step forms a two-access
pattern eligible for promotion to the global space, so nothing in it
outlives its step: :class:`LocalSpace` stamps the step its cells belong to
and frees them all when the task moves to its next step, and the checker
drops the whole space at the task's end (see DESIGN.md, "Local metadata
lifetime").

Replacement policy (Figures 8 and 9): a slot is overwritten only when it is
empty or its occupant's step executes *in series* with the current step, so
occupied slots always describe accesses that remain relevant as potential
interleavers / victims for future parallel accesses.

``thorough`` mode
-----------------
The pseudocode keeps exactly one pattern per kind.  When an existing
pattern is *parallel* to a newly formed one, the new pattern is dropped --
which loses completeness in rare topologies (two mutually parallel steps
both forming patterns, with a later interleaver parallel to only one of
them; see DESIGN.md and ``tests/test_opt_corner_cases.py``).
:class:`GlobalSpace` therefore optionally keeps an *overflow list* of
additional mutually-parallel patterns per kind, restoring equivalence with
the basic checker at the cost of unbounded (in theory; tiny in practice)
metadata.  The optimized checker enables it with ``mode="thorough"``.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.checker.access import EMPTY_LOCKSET, AccessEntry, TwoAccessPattern

Location = Hashable

#: Signature of the parallelism oracle handed to the spaces.
ParallelFn = Callable[[int, int], bool]

SINGLE_KINDS = ("R1", "R2", "W1", "W2")
PATTERN_KINDS = ("RR", "RW", "WR", "WW")


class GlobalSpace:
    """The twelve global access-history entries of one location/group."""

    __slots__ = (
        "R1",
        "R2",
        "W1",
        "W2",
        "RR",
        "RW",
        "WR",
        "WW",
        "version",
        "_overflow",
    )

    def __init__(self) -> None:
        self.R1: Optional[AccessEntry] = None
        self.R2: Optional[AccessEntry] = None
        self.W1: Optional[AccessEntry] = None
        self.W2: Optional[AccessEntry] = None
        self.RR: Optional[TwoAccessPattern] = None
        self.RW: Optional[TwoAccessPattern] = None
        self.WR: Optional[TwoAccessPattern] = None
        self.WW: Optional[TwoAccessPattern] = None
        #: Bumped on every mutation.  Local cells stamp the version they
        #: last checked against, so a step repeating the same access kind
        #: against an unchanged space can skip the (identical) re-checks --
        #: the checker-level analogue of the paper's LCA-query caching.
        self.version = 0
        #: Extra mutually-parallel patterns per kind (thorough mode only).
        self._overflow: Optional[Dict[str, List[TwoAccessPattern]]] = None

    # -- single-access entries --------------------------------------------

    def singles(self, kind: str) -> Tuple[Optional[AccessEntry], Optional[AccessEntry]]:
        """The (first, second) single slots for ``kind`` ``"R"`` or ``"W"``."""
        if kind == "R":
            return self.R1, self.R2
        return self.W1, self.W2

    def read_singles(self) -> Iterable[AccessEntry]:
        """The occupied read single-access entries."""
        if self.R1 is not None:
            yield self.R1
        if self.R2 is not None:
            yield self.R2

    def write_singles(self) -> Iterable[AccessEntry]:
        """The occupied write single-access entries."""
        if self.W1 is not None:
            yield self.W1
        if self.W2 is not None:
            yield self.W2

    def update_single(
        self, kind: str, entry: AccessEntry, parallel: ParallelFn
    ) -> None:
        """Install *entry* into an ``R1/R2`` or ``W1/W2`` slot.

        Figures 8/9 rule: take the first slot that is empty or whose
        occupant is in series with the new entry's step; if both slots hold
        parallel accesses the entry is dropped (two parallel witnesses of
        the kind already exist).
        """
        step = entry.step
        if kind == "R":
            if self.R1 is None or not parallel(self.R1.step, step):
                self.R1 = entry
                self.version += 1
            elif self.R2 is None or not parallel(self.R2.step, step):
                self.R2 = entry
                self.version += 1
        else:
            if self.W1 is None or not parallel(self.W1.step, step):
                self.W1 = entry
                self.version += 1
            elif self.W2 is None or not parallel(self.W2.step, step):
                self.W2 = entry
                self.version += 1

    # -- two-access patterns -----------------------------------------------

    def pattern(self, kind: str) -> Optional[TwoAccessPattern]:
        """The primary pattern slot for *kind* (``RR``/``RW``/``WR``/``WW``)."""
        return getattr(self, kind)

    def patterns(self, kind: str) -> Iterable[TwoAccessPattern]:
        """All stored patterns of *kind*: primary slot plus overflow."""
        primary = getattr(self, kind)
        if primary is not None:
            yield primary
        if self._overflow is not None:
            yield from self._overflow.get(kind, ())

    def all_patterns(self) -> Iterable[TwoAccessPattern]:
        """Every stored pattern of every kind."""
        for kind in PATTERN_KINDS:
            yield from self.patterns(kind)

    def update_pattern(
        self,
        kind: str,
        candidate: TwoAccessPattern,
        parallel: ParallelFn,
        thorough: bool = False,
    ) -> bool:
        """Install *candidate* into the pattern slot for *kind*.

        The paper's rule: store when the slot is empty or the occupant is
        in series with the candidate's step.  In ``thorough`` mode a
        candidate blocked by a *parallel* occupant is appended to the
        overflow list instead of being dropped (unless the same step
        already stored a pattern of this kind).

        Returns ``True`` when the candidate was stored somewhere.
        """
        current = getattr(self, kind)
        if current is None or not parallel(current.step, candidate.step):
            setattr(self, kind, candidate)
            self.version += 1
            return True
        if not thorough:
            return False
        if current.step == candidate.step:
            return False
        if self._overflow is None:
            self._overflow = {}
        extras = self._overflow.setdefault(kind, [])
        for stored in extras:
            if stored.step == candidate.step:
                return False
            if not parallel(stored.step, candidate.step):
                extras.remove(stored)
                extras.append(candidate)
                self.version += 1
                return True
        extras.append(candidate)
        self.version += 1
        return True

    # -- accounting ----------------------------------------------------------

    def entry_count(self) -> int:
        """Occupied entries, counting each pattern as two (max 12 in paper mode)."""
        count = sum(1 for kind in SINGLE_KINDS if getattr(self, kind) is not None)
        count += 2 * sum(1 for kind in PATTERN_KINDS if getattr(self, kind) is not None)
        if self._overflow is not None:
            count += 2 * sum(len(extras) for extras in self._overflow.values())
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        parts = []
        for kind in SINGLE_KINDS + PATTERN_KINDS:
            value = getattr(self, kind)
            if value is not None:
                parts.append(f"{kind}={value!r}")
        return "<GS " + " ".join(parts) + ">"


class LocalCell:
    """Per-(task, location) local metadata: first read and first write
    by the owning :class:`LocalSpace`'s current step."""

    __slots__ = (
        "read",
        "write",
        "ver_rr",
        "ver_wr",
        "ver_rw",
        "ver_ww",
        "ver_sr",
        "ver_sw",
    )

    def __init__(self) -> None:
        self.read: Optional[AccessEntry] = None
        self.write: Optional[AccessEntry] = None
        # Global-space versions at which this cell last ran each check
        # (pattern kinds and single-slot updates).  -1 = never.
        self.ver_rr = -1
        self.ver_wr = -1
        self.ver_rw = -1
        self.ver_ww = -1
        self.ver_sr = -1
        self.ver_sw = -1

    @property
    def is_empty(self) -> bool:
        return self.read is None and self.write is None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<LS R={self.read!r} W={self.write!r}>"


class LocalSpace:
    """The local metadata of one task's current step: key -> cell.

    ``step`` stamps the step node every cell belongs to.  A task's steps
    run in series and its step ids only grow, so once the task accesses
    memory from a later step no check can read the earlier step's cells
    again: :meth:`advance` frees them all at once.

    ``raw_lockset``/``lockset`` cache the event lockset of the task's
    last locked access and its frozenset, so a run of accesses under one
    set of locks shares a single frozenset; the cache goes with the
    space at the task's end.
    """

    __slots__ = ("step", "_cells", "raw_lockset", "lockset")

    def __init__(self, step: int) -> None:
        self.step = step
        self._cells: Dict[Location, LocalCell] = {}
        self.raw_lockset: Tuple[str, ...] = ()
        self.lockset: FrozenSet[str] = EMPTY_LOCKSET

    def advance(self, step: int) -> int:
        """Move to *step*, freeing every cell of the old step; return how
        many cells were freed."""
        freed = len(self._cells)
        self._cells.clear()
        self.step = step
        return freed

    def cell_for(self, key: Location, step: int) -> Tuple[LocalCell, bool]:
        """The cell for *key* at *step*, advancing to *step* first.

        Returns ``(cell, had_prior)`` where ``had_prior`` says whether the
        current step already recorded an access to *key* -- i.e. whether
        this is a *non-first* access by the step.

        :meth:`repro.checker.optimized.OptAtomicityChecker.on_memory`
        inlines this lookup on its per-access path; keep the two in step.
        """
        if step != self.step:
            self.advance(step)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = LocalCell()
            return cell, False
        return cell, not cell.is_empty

    def entry_count(self) -> int:
        """Occupied local entries across all locations (2 per cell max)."""
        return sum(
            (cell.read is not None) + (cell.write is not None)
            for cell in self._cells.values()
        )

    def cell_count(self) -> int:
        """Number of live cells (one per location the step has touched)."""
        return len(self._cells)
