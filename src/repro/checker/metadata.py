"""Fixed-size metadata spaces for the optimized checker (Section 3.2.1).

Every slot holds the runtime's :class:`~repro.runtime.events.MemoryEvent`
for the access it records: the checker stores the event it receives, so
an access is built once, by the runtime or the trace reader, and never
copied.

Global space
------------
Twelve access-history entries per checked location (or per multi-variable
group):

* four *single-access* entries -- ``R1``, ``R2``, ``W1``, ``W2`` -- holding
  two distinct reads and two distinct writes by step nodes that can execute
  in parallel (when both slots of a kind are occupied);
* four *two-access* patterns -- ``RR``, ``RW``, ``WR``, ``WW`` -- each a
  pair of accesses performed by one step node, kept as two slots: the
  pattern's first access ``A1`` (``RR1``, ...) and its second ``A3``
  (``RR3``, ...).

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
interleavers / victims for future parallel accesses.  The checker
(:class:`~repro.checker.optimized.OptAtomicityChecker`) applies the policy
inline on its per-access path; these classes only hold the slots.

``thorough`` mode keeps extra mutually-parallel patterns per kind in an
overflow dict on the checker, not here: a paper-mode space is exactly its
twelve slots and a version.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.runtime.events import MemoryEvent

Location = Hashable

SINGLE_KINDS = ("R1", "R2", "W1", "W2")
PATTERN_KINDS = ("RR", "RW", "WR", "WW")


class GlobalSpace:
    """The twelve global access-history entries of one location/group."""

    __slots__ = (
        "R1",
        "R2",
        "W1",
        "W2",
        "RR1",
        "RR3",
        "RW1",
        "RW3",
        "WR1",
        "WR3",
        "WW1",
        "WW3",
        "version",
    )

    def __init__(self) -> None:
        self.R1: Optional[MemoryEvent] = None
        self.R2: Optional[MemoryEvent] = None
        self.W1: Optional[MemoryEvent] = None
        self.W2: Optional[MemoryEvent] = None
        # Each pattern's A1 and A3 slots are set and cleared together.
        self.RR1: Optional[MemoryEvent] = None
        self.RR3: Optional[MemoryEvent] = None
        self.RW1: Optional[MemoryEvent] = None
        self.RW3: Optional[MemoryEvent] = None
        self.WR1: Optional[MemoryEvent] = None
        self.WR3: Optional[MemoryEvent] = None
        self.WW1: Optional[MemoryEvent] = None
        self.WW3: Optional[MemoryEvent] = None
        #: Bumped on every mutation.  Local cells stamp the version they
        #: last checked against, so a step repeating the same access kind
        #: against an unchanged space can skip the (identical) re-checks --
        #: the checker-level analogue of the paper's LCA-query caching.
        self.version = 0

    def entry_count(self) -> int:
        """Occupied entries, counting each pattern as two (max 12)."""
        count = sum(1 for kind in SINGLE_KINDS if getattr(self, kind) is not None)
        count += 2 * sum(
            1 for kind in PATTERN_KINDS if getattr(self, kind + "1") is not None
        )
        return count

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        parts = []
        for slot in self.__slots__[:-1]:
            value = getattr(self, slot)
            if value is not None:
                parts.append(f"{slot}={value!r}")
        return "<GS " + " ".join(parts) + ">"


class LocalCell:
    """Per-(task, location) local metadata: first read and first write
    by the owning :class:`LocalSpace`'s current step.  A cell exists only
    once its step has accessed the location, so one of the two is set."""

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
        self.read: Optional[MemoryEvent] = None
        self.write: Optional[MemoryEvent] = None
        # Global-space versions at which this cell last ran each check
        # (pattern kinds and single-slot updates).  -1 = never.
        self.ver_rr = -1
        self.ver_wr = -1
        self.ver_rw = -1
        self.ver_ww = -1
        self.ver_sr = -1
        self.ver_sw = -1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<LS R={self.read!r} W={self.write!r}>"


class LocalSpace:
    """The local metadata of one task's current step: key -> cell.

    ``step`` stamps the step node every cell belongs to.  A task's steps
    run in series and its step ids only grow, so once the task accesses
    memory from a later step no check can read the earlier step's cells
    again: :meth:`advance` frees them all at once.
    """

    __slots__ = ("step", "_cells")

    def __init__(self, step: int) -> None:
        self.step = step
        self._cells: Dict[Location, LocalCell] = {}

    def advance(self, step: int) -> int:
        """Move to *step*, freeing every cell of the old step; return how
        many cells were freed."""
        freed = len(self._cells)
        self._cells.clear()
        self.step = step
        return freed

    def entry_count(self) -> int:
        """Occupied local entries across all locations (2 per cell max)."""
        return sum(
            (cell.read is not None) + (cell.write is not None)
            for cell in self._cells.values()
        )

    def cell_count(self) -> int:
        """Number of live cells (one per location the step has touched)."""
        return len(self._cells)
