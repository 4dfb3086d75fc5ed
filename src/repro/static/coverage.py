"""Trace-coverage validation of the completeness precondition.

The checker is complete for a given input only when the observed trace
contains every shared access any schedule could perform.  Given a
:class:`~repro.static.accesses.StaticAccessSet` (the over-approximation)
and a recorded :class:`~repro.trace.trace.Trace` (what actually ran), this
module classifies each static pattern:

* **covered** -- some trace access matches the pattern with the right
  access type;
* **missing** -- an exact pattern with no matching trace access: the run
  took a branch that skipped it, so a different schedule might perform it
  and the single-trace guarantee is void for its location;
* **imprecise** -- prefix/unknown patterns can only be checked weakly
  (some access with a matching prefix); they are reported separately so
  the user knows the analysis could not prove full coverage.

Conversely, a trace access matching *no* static pattern indicates the
static front end under-approximated (it should be impossible for the
exact spec front end; for the AST front end the construct that hid it
is normally listed in ``unresolved_tasks`` as well).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List, Set, Tuple

from repro.report import WRITE
from repro.static.accesses import EXACT, AccessPattern, StaticAccessSet
from repro.trace.trace import Trace

Location = Hashable

#: Scratch-location prefixes minted by the runtime's algorithm templates
#: (:mod:`repro.runtime.algorithms`).  They are deterministic plumbing of
#: the templates themselves, not program state, so coverage checking
#: ignores them.
RESERVED_PREFIXES = ("__reduce__", "__pipe__")


def _is_reserved(location: Location) -> bool:
    return (
        isinstance(location, tuple)
        and bool(location)
        and location[0] in RESERVED_PREFIXES
    )


@dataclass
class CoverageReport:
    """Outcome of checking a trace against a static access set."""

    covered: List[AccessPattern] = field(default_factory=list)
    missing: List[AccessPattern] = field(default_factory=list)
    imprecise: List[AccessPattern] = field(default_factory=list)
    #: (location, access_type) pairs observed but not statically predicted.
    unpredicted: List[Tuple[Location, str]] = field(default_factory=list)
    unresolved_tasks: List[str] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Does the single-trace completeness guarantee stand?

        Requires every exact pattern covered, no unpredicted accesses, no
        unresolved tasks, and no imprecise patterns (which we cannot
        prove covered).
        """
        return not (
            self.missing
            or self.unpredicted
            or self.unresolved_tasks
            or self.imprecise
        )

    @property
    def suspect_locations(self) -> Set[Location]:
        """Locations whose verdicts should be treated as incomplete."""
        locations: Set[Location] = set()
        for pattern in self.missing:
            if pattern.kind == EXACT:
                locations.add(pattern.location)
        return locations

    def describe(self) -> str:
        lines = [
            f"coverage: {len(self.covered)} covered, {len(self.missing)} missing, "
            f"{len(self.imprecise)} imprecise, {len(self.unpredicted)} unpredicted"
        ]
        for pattern in self.missing:
            lines.append(f"  MISSING   {pattern.describe()}")
        for pattern in self.imprecise:
            lines.append(f"  IMPRECISE {pattern.describe()}")
        for location, access_type in self.unpredicted:
            letter = "W" if access_type == WRITE else "R"
            lines.append(f"  UNPREDICTED {letter}({location!r})")
        if self.unresolved_tasks:
            lines.append(f"  UNRESOLVED TASKS: {self.unresolved_tasks}")
        verdict = "guarantee STANDS" if self.complete else "guarantee VOID"
        lines.append(f"single-trace completeness {verdict}")
        return "\n".join(lines)


def check_trace_coverage(
    static: StaticAccessSet, trace: Trace
) -> CoverageReport:
    """Classify *static*'s patterns against the accesses in *trace*."""
    report = CoverageReport(unresolved_tasks=list(static.unresolved_tasks))
    observed: Set[Tuple[Location, str]] = {
        (event.location, event.access_type)
        for event in trace.memory_events()
        if not _is_reserved(event.location)
    }
    for pattern in sorted(
        static.patterns, key=lambda p: (p.kind, str(p.location), p.access_type)
    ):
        if pattern.kind == EXACT:
            if (pattern.location, pattern.access_type) in observed:
                report.covered.append(pattern)
            else:
                report.missing.append(pattern)
        else:
            # Weak check only: some observed access matches the pattern.
            if any(
                pattern.matches(location) and access_type == pattern.access_type
                for location, access_type in observed
            ):
                report.imprecise.append(pattern)
            else:
                report.missing.append(pattern)
    for location, access_type in sorted(observed, key=str):
        if not static.may_access(location, access_type):
            report.unpredicted.append((location, access_type))
    return report
