"""The static access vocabulary: location patterns and access sets.

A :class:`StaticAccessSet` over-approximates the shared accesses a
program can perform.  Both front ends produce one by projecting the
static skeleton (:mod:`repro.static.structure`):
:func:`~repro.static.structure.analyze_spec` for generator spec trees
(exact) and :func:`~repro.static.structure.analyze_function` for task
bodies (best effort).

Location expressions are abstracted to three precision levels:

* a fully constant expression -> an exact location;
* a tuple whose first element is constant -> a *prefix* pattern
  (``("grid", i)`` with dynamic ``i`` becomes prefix ``"grid"``);
* anything else -> the *unknown* pattern (matches any location).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Set, Tuple

from repro.report import WRITE

Location = Hashable

#: Pattern kinds, in decreasing precision.
EXACT = "exact"
PREFIX = "prefix"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class AccessPattern:
    """One statically-derived access: precision level, location, type."""

    kind: str                 # EXACT | PREFIX | UNKNOWN
    location: Location        # exact location, or the prefix string
    access_type: str          # READ or WRITE

    def matches(self, location: Location) -> bool:
        """Does a concrete runtime location fall under this pattern?"""
        if self.kind == UNKNOWN:
            return True
        if self.kind == EXACT:
            return location == self.location
        return isinstance(location, tuple) and bool(location) and location[0] == self.location

    def describe(self) -> str:
        letter = "W" if self.access_type == WRITE else "R"
        if self.kind == EXACT:
            return f"{letter}({self.location!r})"
        if self.kind == PREFIX:
            return f"{letter}(({self.location!r}, *))"
        return f"{letter}(?)"


class StaticAccessSet:
    """The over-approximated access set of a program."""

    def __init__(self) -> None:
        self.patterns: Set[AccessPattern] = set()
        #: Constructs that may hide accesses from :attr:`patterns`:
        #: unresolved task bodies, context escapes, unsupported
        #: constructs, an exhausted analysis budget.
        self.unresolved_tasks: List[str] = []

    # -- population ------------------------------------------------------

    def add(self, kind: str, location: Location, access_type: str) -> None:
        self.patterns.add(AccessPattern(kind, location, access_type))

    # -- queries ----------------------------------------------------------

    @property
    def is_precise(self) -> bool:
        """True when every pattern is exact and nothing may hide an access."""
        return not self.unresolved_tasks and all(
            p.kind == EXACT for p in self.patterns
        )

    def exact_locations(self, access_type: Optional[str] = None) -> Set[Location]:
        """Exact locations (optionally of one access type)."""
        return {
            p.location
            for p in self.patterns
            if p.kind == EXACT
            and (access_type is None or p.access_type == access_type)
        }

    def may_access(self, location: Location, access_type: str) -> bool:
        """Could the program access *location* with *access_type*?"""
        return any(
            p.access_type == access_type and p.matches(location)
            for p in self.patterns
        )

    def describe(self) -> str:
        lines = [f"{len(self.patterns)} static access pattern(s):"]
        lines += sorted(p.describe() for p in self.patterns)
        if self.unresolved_tasks:
            lines.append(f"unresolved task bodies: {self.unresolved_tasks}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.patterns)


# ---------------------------------------------------------------------------
# Location abstraction
# ---------------------------------------------------------------------------


def _literal(node: ast.expr) -> Tuple[bool, Any]:
    """(is_constant, value) for a location expression."""
    try:
        return True, ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return False, None


def _call_argument(
    node: ast.Call, index: int, keyword: Optional[str]
) -> Optional[ast.expr]:
    """Positional *index* of a call, falling back to keyword *keyword*.

    The runtime API accepts its arguments by keyword too
    (``ctx.write(location="x", value=1)``, ``ctx.spawn(body=f)``), so the
    analysis must look at ``node.keywords`` as well as ``node.args``.
    """
    if len(node.args) > index:
        return node.args[index]
    if keyword is not None:
        for entry in node.keywords:
            if entry.arg == keyword:
                return entry.value
    return None


def _location_pattern(node: ast.expr) -> Tuple[str, Any]:
    """Abstract a location expression to (kind, value)."""
    constant, value = _literal(node)
    if constant:
        return EXACT, value
    if isinstance(node, ast.Tuple) and node.elts:
        head_constant, head = _literal(node.elts[0])
        if head_constant:
            return PREFIX, head
    return UNKNOWN, None
