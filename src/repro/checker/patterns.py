"""Conflict serializability of three-access interleavings (paper Figure 4).

Setting: accesses ``A1`` and ``A3`` are performed, in that order, by one
step node of one task; ``A2`` is performed by a step node of a different
task that can logically execute in parallel, interleaving between the two.
All three touch the same location.  The trace ``A1 A2 A3`` is conflict
serializable iff it can be reordered into a serial trace (both of the
first task's accesses adjacent) by commuting adjacent non-conflicting
operations.

Two operations *conflict* iff they access the same location from different
tasks and at least one writes.  With only two transactions, the trace is
unserializable iff there is a conflict edge in both directions, i.e. iff
``A1`` conflicts with ``A2`` *and* ``A2`` conflicts with ``A3``.  That
yields exactly the paper's table:

========  ================
pattern   conflict
========  ================
R R R     serializable
R R W     serializable
W R R     serializable
R W R     **unserializable**
R W W     **unserializable**
W R W     **unserializable**
W W R     **unserializable**
W W W     **unserializable**
========  ================

(the same five unserializable shapes as AVIO's interleaving invariants,
plus W-W-W which AVIO treats as a benign update pattern but conflict
serializability rejects).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.report import READ, WRITE
from repro.runtime.events import MemoryEvent

#: A two-access pattern: its ``A1`` and ``A3`` events, performed in that
#: order by one step node.
Pattern = Tuple[MemoryEvent, MemoryEvent]

#: The eight triples in pattern-code form, mapping to ``True`` when the
#: interleaving is conflict serializable.
_TABLE: Dict[str, bool] = {
    "RRR": True,
    "RRW": True,
    "WRR": True,
    "RWR": False,
    "RWW": False,
    "WRW": False,
    "WWR": False,
    "WWW": False,
}

#: The unserializable pattern codes, sorted.
UNSERIALIZABLE_PATTERNS: Tuple[str, ...] = tuple(
    sorted(code for code, ok in _TABLE.items() if not ok)
)

#: The serializable pattern codes, sorted.
SERIALIZABLE_PATTERNS: Tuple[str, ...] = tuple(
    sorted(code for code, ok in _TABLE.items() if ok)
)


def _letter(access_type: str) -> str:
    return "W" if access_type == WRITE else "R"


def triple_code(a1_type: str, a2_type: str, a3_type: str) -> str:
    """The three-letter pattern code, e.g. ``("read","write","read")`` -> ``"RWR"``."""
    return _letter(a1_type) + _letter(a2_type) + _letter(a3_type)


def is_serializable(a1_type: str, a2_type: str, a3_type: str) -> bool:
    """Is the ``A1 A2 A3`` interleaving conflict serializable? (Fig. 4)"""
    return _TABLE[triple_code(a1_type, a2_type, a3_type)]


def is_unserializable_triple(a1_type: str, a2_type: str, a3_type: str) -> bool:
    """Negation of :func:`is_serializable`, the checker's hot predicate."""
    return not _TABLE[triple_code(a1_type, a2_type, a3_type)]


def pattern_violated_by(pattern: Pattern, interleaver: MemoryEvent) -> bool:
    """Would *interleaver* between the pattern's accesses be unserializable?

    Only the access *types* are consulted; callers are responsible for the
    structural side conditions (distinct tasks, logical parallelism).
    """
    first, third = pattern
    return is_unserializable_triple(
        first.access_type, interleaver.access_type, third.access_type
    )


def serializability_table() -> List[Tuple[str, bool]]:
    """The full Figure 4 table as ``(code, serializable)`` rows."""
    return sorted(_TABLE.items())


def brute_force_serializable(
    a1_type: str, a2_type: str, a3_type: str
) -> bool:
    """Reference oracle: decide serializability from first principles.

    Enumerates both serial orders (``A2`` before or after the ``A1 A3``
    block) and checks whether one is reachable from ``A1 A2 A3`` by
    commuting adjacent non-conflicting operations.  With three operations
    this reduces to moving ``A2`` left past ``A1`` or right past ``A3``,
    allowed when the adjacent pair does not conflict.  Used by property
    tests to validate the table.
    """

    def conflicts(x: str, y: str) -> bool:
        return x == WRITE or y == WRITE

    can_move_left = not conflicts(a1_type, a2_type)
    can_move_right = not conflicts(a2_type, a3_type)
    return can_move_left or can_move_right


def all_triples() -> Iterable[Tuple[str, str, str]]:
    """Every (A1, A2, A3) access-type combination."""
    for a1 in (READ, WRITE):
        for a2 in (READ, WRITE):
            for a3 in (READ, WRITE):
                yield (a1, a2, a3)
