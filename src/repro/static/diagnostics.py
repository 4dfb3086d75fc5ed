"""Lint diagnostics: stable codes, severities, and rendering.

Every finding of the static lint pass (:mod:`repro.static.lint`) is a
:class:`Diagnostic` with a stable ``SAVnnn`` code so tooling can filter
and CI can gate on severities.  The catalog (:data:`RULES`) is the single
source of truth; ``docs/api.md`` renders it.

Code ranges
-----------
``SAV0xx``
    Candidate unserializable triples (the paper's Figure 4 taxonomy
    applied statically).
``SAV1xx``
    Structural rules: constructs that void the analysis' precision or
    smell like synchronization mistakes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

#: Severity levels, in decreasing order of gravity.
ERROR = "error"
WARNING = "warning"
INFO = "info"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1, INFO: 2}

#: Candidate-triple rules (SAV0xx).
CANDIDATE_EXACT = "SAV001"
CANDIDATE_POSSIBLE = "SAV002"

#: Structural rules (SAV1xx).
UNRESOLVED_TASK = "SAV101"
NONCONSTANT_LOCATION = "SAV102"
CTX_ESCAPE = "SAV103"
LOCK_IMBALANCE = "SAV104"
DYNAMIC_LOCK_NAME = "SAV105"
UNJOINED_SPAWN = "SAV106"
CONDITIONAL_SYNC = "SAV107"
ANALYSIS_LIMIT = "SAV108"

#: The rule catalog: code -> (default severity, one-line summary).
RULES: Dict[str, Tuple[str, str]] = {
    CANDIDATE_EXACT: (
        ERROR,
        "statically-unserializable triple on an exact location "
        "(Fig. 4 pattern, parallel steps, disjoint locksets)",
    ),
    CANDIDATE_POSSIBLE: (
        WARNING,
        "possible unserializable triple through imprecise (prefix/unknown) "
        "location patterns",
    ),
    UNRESOLVED_TASK: (
        WARNING,
        "spawned task body could not be resolved statically",
    ),
    NONCONSTANT_LOCATION: (
        WARNING,
        "non-constant location expression degrades the access set to a "
        "prefix/unknown pattern",
    ),
    CTX_ESCAPE: (
        WARNING,
        "task context escapes the ctx access discipline (aliased into a "
        "container or passed to an unresolvable callee)",
    ),
    LOCK_IMBALANCE: (
        WARNING,
        "unbalanced lock scope (acquire without release, release without "
        "acquire, or re-acquiring a held lock)",
    ),
    DYNAMIC_LOCK_NAME: (
        INFO,
        "non-constant lock name; critical sections are tracked per lexical "
        "scope only",
    ),
    UNJOINED_SPAWN: (
        INFO,
        "spawn joined only by the implicit end-of-task drain (no explicit "
        "sync or finish scope)",
    ),
    CONDITIONAL_SYNC: (
        INFO,
        "sync under a condition is ignored for parallelism "
        "(over-approximated as absent)",
    ),
    ANALYSIS_LIMIT: (
        WARNING,
        "unsupported construct or analysis budget exceeded; the skeleton "
        "is approximate",
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding.

    ``site`` is a human-readable source anchor (``file:line`` for the AST
    front end, a spec path for the spec front end); ``location`` and
    ``pattern`` are populated for candidate-triple diagnostics.
    """

    code: str
    severity: str
    message: str
    site: Optional[str] = None
    location: Optional[Hashable] = None
    pattern: Optional[str] = None

    @property
    def is_error(self) -> bool:
        return self.severity == ERROR

    def describe(self) -> str:
        anchor = f" at {self.site}" if self.site else ""
        return f"{self.code} [{self.severity}]{anchor}: {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.site:
            data["site"] = self.site
        if self.location is not None:
            data["location"] = repr(self.location)
        if self.pattern:
            data["pattern"] = self.pattern
        return data


def make_diagnostic(
    code: str,
    message: str,
    site: Optional[str] = None,
    location: Optional[Hashable] = None,
    pattern: Optional[str] = None,
    severity: Optional[str] = None,
) -> Diagnostic:
    """Build a diagnostic, defaulting the severity from :data:`RULES`."""
    if severity is None:
        severity = RULES[code][0]
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        site=site,
        location=location,
        pattern=pattern,
    )


def sort_diagnostics(diagnostics: List[Diagnostic]) -> List[Diagnostic]:
    """Severity-major, then code, then site -- stable render order."""
    return sorted(
        diagnostics,
        key=lambda d: (
            _SEVERITY_RANK.get(d.severity, 99),
            d.code,
            d.site or "",
            d.message,
        ),
    )
