"""Access-history entries and two-access patterns.

These are the units of the paper's metadata as the basic, RegionTrack and
race checkers keep them: an :class:`AccessEntry` is one ``<step node,
access type>`` record (optionally with the lockset held, per Section 3.3),
and a :class:`TwoAccessPattern` is an ordered pair of entries performed by
the same step node -- the ``A1``/``A3`` of an unserializable triple.  (The
optimized checker stores the runtime's
:class:`~repro.runtime.events.MemoryEvent` itself instead, and a pattern
as two slots of its global space.)

Both are deliberately plain ``__slots__`` classes rather than dataclasses:
those checkers allocate one per dynamic memory access.  Treat instances as
immutable.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable

from repro.report import READ, WRITE, AccessInfo

Location = Hashable

EMPTY_LOCKSET: FrozenSet[str] = frozenset()


class AccessEntry:
    """One access-history entry.

    The global metadata space conceptually stores only ``(step, type)``;
    the task id, location and lockset ride along for report quality and for
    the local-space lock handling (the paper likewise keeps lock
    information only in the local space -- the global space ignores it).
    """

    __slots__ = ("step", "access_type", "task", "location", "lockset")

    def __init__(
        self,
        step: int,
        access_type: str,
        task: int = -1,
        location: Location = None,
        lockset: FrozenSet[str] = EMPTY_LOCKSET,
    ) -> None:
        self.step = step
        self.access_type = access_type
        self.task = task
        self.location = location
        self.lockset = lockset

    @property
    def is_write(self) -> bool:
        return self.access_type == WRITE

    @property
    def is_read(self) -> bool:
        return self.access_type == READ

    def locks_disjoint(self, other: "AccessEntry") -> bool:
        """No common (versioned) lock: the accesses are in different
        critical sections, so an interleaving access can separate them."""
        mine = self.lockset
        theirs = other.lockset
        if not mine or not theirs:
            return True
        return not (mine & theirs)

    def info(self) -> AccessInfo:
        """Convert to the report-facing :class:`AccessInfo`."""
        return AccessInfo(
            step=self.step,
            access_type=self.access_type,
            location=self.location,
            task=self.task if self.task >= 0 else None,
            lockset=tuple(sorted(self.lockset)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessEntry):
            return NotImplemented
        return (
            self.step == other.step
            and self.access_type == other.access_type
            and self.task == other.task
            and self.location == other.location
            and self.lockset == other.lockset
        )

    def __hash__(self) -> int:
        return hash((self.step, self.access_type, self.task, self.location))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        letter = "W" if self.is_write else "R"
        locks = "{" + ",".join(sorted(self.lockset)) + "}" if self.lockset else ""
        return f"(S{self.step},{letter}{locks})"


class TwoAccessPattern:
    """An ordered pair of accesses performed by the same step node.

    ``kind`` is one of ``"RR"``, ``"RW"``, ``"WR"``, ``"WW"``: the access
    types of ``first`` and ``second`` in program order.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: AccessEntry, second: AccessEntry) -> None:
        self.first = first
        self.second = second

    @property
    def step(self) -> int:
        """The step node that performed both accesses."""
        return self.first.step

    @property
    def kind(self) -> str:
        a = "W" if self.first.is_write else "R"
        b = "W" if self.second.is_write else "R"
        return a + b

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoAccessPattern):
            return NotImplemented
        return self.first == other.first and self.second == other.second

    def __hash__(self) -> int:
        return hash((self.first, self.second))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"[{self.first!r},{self.second!r}]"

