"""The static atomicity lint pass (``repro lint``).

Combines the static skeleton (:mod:`repro.static.structure`), static MHP
(:mod:`repro.static.mhp`) and versioned static locksets
(:mod:`repro.static.locksets`) into the paper's Figure 4 check, applied
before any execution:

* a **candidate unserializable triple** is a same-step ordered access
  pair on one location whose versioned locksets are disjoint (the two
  accesses lie in different critical sections, Section 3.3), plus a
  statically-parallel access to the same location whose interposition
  forms one of the five unserializable RW patterns (Figure 4).  Exact
  triples (all three locations compile-time constants) are ``SAV001``
  errors; triples reached through prefix/unknown location patterns are
  ``SAV002`` warnings.
* **structural rules** surface everything the skeleton builder had to
  approximate or found suspicious (unresolved task bodies, ctx-discipline
  escapes, unbalanced lock scopes, conditional syncs, ...), each under a
  stable ``SAV1xx`` code.

Suppression comments (``# repro: ignore[SAV001]`` on the flagged line)
move diagnostics into :attr:`LintReport.suppressed` without deleting
them, so SARIF output can mark them suppressed-in-source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.checker.patterns import is_unserializable_triple, triple_code
from repro.static.accesses import EXACT
from repro.static.diagnostics import (
    ANALYSIS_LIMIT,
    CANDIDATE_EXACT,
    CANDIDATE_POSSIBLE,
    CONDITIONAL_SYNC,
    CTX_ESCAPE,
    DYNAMIC_LOCK_NAME,
    ERROR,
    INFO,
    LOCK_IMBALANCE,
    NONCONSTANT_LOCATION,
    UNJOINED_SPAWN,
    UNRESOLVED_TASK,
    WARNING,
    Diagnostic,
    make_diagnostic,
    sort_diagnostics,
)
from repro.static.locksets import locks_disjoint
from repro.static.mhp import MHPIndex
from repro.static.structure import (
    SkeletonNote,
    StaticSkeleton,
    skeleton_from_function,
    skeleton_from_spec,
)

Location = Hashable

#: Skeleton note kind -> diagnostic code.
_NOTE_CODES: Dict[str, str] = {
    "unresolved-task": UNRESOLVED_TASK,
    "nonconstant-location": NONCONSTANT_LOCATION,
    "ctx-escape": CTX_ESCAPE,
    "lock-imbalance": LOCK_IMBALANCE,
    "dynamic-lock-name": DYNAMIC_LOCK_NAME,
    "unjoined-spawn": UNJOINED_SPAWN,
    "conditional-sync": CONDITIONAL_SYNC,
    "unsupported": ANALYSIS_LIMIT,
    "budget-exceeded": ANALYSIS_LIMIT,
    "control-flow-skip": ANALYSIS_LIMIT,
    "recursive-inline": ANALYSIS_LIMIT,
}


@dataclass(frozen=True)
class StaticCandidate:
    """One candidate unserializable triple found statically.

    ``first`` and ``second`` are the same-step pair (program order);
    ``interleaver`` is the statically-parallel access that can land
    between them.  Each leg is ``(access_type, site)``.
    """

    location: Location
    pattern: str                       # e.g. "WRW" (first-interleaver-second)
    first: Tuple[str, str]
    interleaver: Tuple[str, str]
    second: Tuple[str, str]
    exact: bool

    @property
    def code(self) -> str:
        return CANDIDATE_EXACT if self.exact else CANDIDATE_POSSIBLE

    def describe(self) -> str:
        qualifier = "" if self.exact else " (imprecise location pattern)"
        return (
            f"{self.pattern} on {self.location!r}{qualifier}: "
            f"{self.first[0]} @ {self.first[1]} .. {self.second[0]} @ "
            f"{self.second[1]} in one step can be split by parallel "
            f"{self.interleaver[0]} @ {self.interleaver[1]}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "code": self.code,
            "location": repr(self.location),
            "pattern": self.pattern,
            "exact": self.exact,
            "first": {"access_type": self.first[0], "site": self.first[1]},
            "interleaver": {
                "access_type": self.interleaver[0],
                "site": self.interleaver[1],
            },
            "second": {"access_type": self.second[0], "site": self.second[1]},
        }

    def to_diagnostic(self) -> Diagnostic:
        return make_diagnostic(
            self.code,
            self.describe(),
            site=self.first[1],
            location=self.location,
            pattern=self.pattern,
        )


class LintReport:
    """Everything ``repro lint`` found about one program."""

    def __init__(
        self,
        target: str,
        skeleton: StaticSkeleton,
        mhp: MHPIndex,
        candidates: List[StaticCandidate],
        diagnostics: List[Diagnostic],
        suppressed: Optional[List[Diagnostic]] = None,
    ) -> None:
        self.target = target
        self.skeleton = skeleton
        self.mhp = mhp
        #: Candidate triples, exact first.
        self.candidates = candidates
        #: Active diagnostics (candidates included), severity-major order.
        self.diagnostics = diagnostics
        #: Diagnostics silenced by ``# repro: ignore`` comments.
        self.suppressed: List[Diagnostic] = suppressed or []

    # -- verdicts ----------------------------------------------------------

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity == ERROR for d in self.diagnostics)

    def callgraph_stats(self) -> Optional[Dict[str, int]]:
        """Call-graph stats (functions, SCCs, unresolved calls), when the
        AST front end ran."""
        stats = self.skeleton.callgraph_stats
        return stats.to_dict() if stats is not None else None

    def severity_counts(self) -> Dict[str, int]:
        counts = {ERROR: 0, WARNING: 0, INFO: 0}
        for diagnostic in self.diagnostics:
            counts[diagnostic.severity] = counts.get(diagnostic.severity, 0) + 1
        return counts

    # -- rendering ---------------------------------------------------------

    def describe(self) -> str:
        counts = self.severity_counts()
        lines = [
            f"repro lint: {self.target}",
            f"  {counts[ERROR]} error(s), {counts[WARNING]} warning(s), "
            f"{counts[INFO]} info note(s); "
            f"{len(self.skeleton.accesses)} static access(es) in "
            f"{len(self.skeleton.steps())} step region(s)",
        ]
        for diagnostic in self.diagnostics:
            lines.append(f"  {diagnostic.describe()}")
        for diagnostic in self.suppressed:
            lines.append(f"  [suppressed] {diagnostic.describe()}")
        stats = self.callgraph_stats()
        if stats is not None:
            lines.append(
                f"  call graph: {stats['functions']} function(s) in "
                f"{stats['sccs']} SCC(s), "
                f"{stats['unresolved_calls']} unresolved call(s)"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        counts = self.severity_counts()
        result = {
            "target": self.target,
            "counts": {
                "errors": counts[ERROR],
                "warnings": counts[WARNING],
                "infos": counts[INFO],
                "accesses": len(self.skeleton.accesses),
                "steps": len(self.skeleton.steps()),
                "candidates": len(self.candidates),
                "suppressed": len(self.suppressed),
            },
            "exact_skeleton": self.skeleton.is_exact,
            "candidates": [c.to_dict() for c in self.candidates],
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "suppressed": [d.to_dict() for d in self.suppressed],
        }
        stats = self.callgraph_stats()
        if stats is not None:
            result["callgraph"] = stats
        return result


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


def _find_candidates(
    skeleton: StaticSkeleton, mhp: MHPIndex
) -> List[StaticCandidate]:
    """Figure 4 applied statically: all same-step pairs x parallel accesses."""
    by_step = skeleton.accesses_by_step()
    seen: set = set()
    candidates: List[StaticCandidate] = []
    for step, accesses in by_step.items():
        # Same-step ordered pairs in different critical sections -- the
        # anchor rule the dynamic checkers apply (the interleaver's own
        # lockset is never consulted).
        pairs = [
            (first, second)
            for i, first in enumerate(accesses)
            for second in accesses[i + 1 :]
            if first.may_alias(second)
            and locks_disjoint(first.lockset, second.lockset)
        ]
        if not pairs:
            continue
        for other_step, other_accesses in by_step.items():
            if not mhp.parallel(step, other_step):
                continue
            # When other_step IS step (a self-parallel region), the
            # interleaver stands for the other dynamic instance's copy of
            # the access, so the pair's own accesses qualify too.
            for interleaver in other_accesses:
                for first, second in pairs:
                    if not (
                        interleaver.may_alias(first)
                        and interleaver.may_alias(second)
                    ):
                        continue
                    if not is_unserializable_triple(
                        first.access_type,
                        interleaver.access_type,
                        second.access_type,
                    ):
                        continue
                    exact = (
                        first.kind == EXACT
                        and second.kind == EXACT
                        and interleaver.kind == EXACT
                    )
                    location = first.location if exact else first.pattern.describe()
                    key = (
                        location,
                        first.site,
                        first.access_type,
                        interleaver.site,
                        interleaver.access_type,
                        second.site,
                        second.access_type,
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    candidates.append(
                        StaticCandidate(
                            location=location,
                            pattern=triple_code(
                                first.access_type,
                                interleaver.access_type,
                                second.access_type,
                            ),
                            first=(first.access_type, first.site),
                            interleaver=(
                                interleaver.access_type,
                                interleaver.site,
                            ),
                            second=(second.access_type, second.site),
                            exact=exact,
                        )
                    )
    candidates.sort(key=lambda c: (not c.exact, repr(c.location), c.pattern))
    return candidates


def _note_diagnostics(notes: Sequence[SkeletonNote]) -> List[Diagnostic]:
    seen: set = set()
    out: List[Diagnostic] = []
    for note in notes:
        key = (note.kind, note.site, note.detail)
        if key in seen:
            continue  # loop unrolling walks the same site twice
        seen.add(key)
        code = _NOTE_CODES.get(note.kind)
        if code is None:
            continue
        message = note.detail or note.kind
        out.append(make_diagnostic(code, message, site=note.site))
    return out


def _split_suppressed(
    diagnostics: List[Diagnostic],
    suppressions: Dict[str, FrozenSet[str]],
) -> Tuple[List[Diagnostic], List[Diagnostic]]:
    """Partition diagnostics into (active, suppressed-in-source)."""
    if not suppressions:
        return diagnostics, []
    active: List[Diagnostic] = []
    suppressed: List[Diagnostic] = []
    for diagnostic in diagnostics:
        codes = suppressions.get(diagnostic.site)
        if codes is not None and (not codes or diagnostic.code in codes):
            suppressed.append(diagnostic)
        else:
            active.append(diagnostic)
    return active, suppressed


def lint_skeleton(skeleton: StaticSkeleton, target: str = "") -> LintReport:
    """Run the full lint pass over an already-built skeleton."""
    mhp = MHPIndex(skeleton)
    candidates = _find_candidates(skeleton, mhp)
    diagnostics = [c.to_diagnostic() for c in candidates]
    diagnostics += _note_diagnostics(skeleton.notes)
    active, suppressed = _split_suppressed(
        sort_diagnostics(diagnostics), skeleton.suppressions
    )
    return LintReport(
        target=target or skeleton.source,
        skeleton=skeleton,
        mhp=mhp,
        candidates=candidates,
        diagnostics=active,
        suppressed=suppressed,
    )


def lint_function(func: Callable[..., Any], target: str = "") -> LintReport:
    """Lint an ordinary task body (AST front end)."""
    skeleton = skeleton_from_function(func)
    return lint_skeleton(skeleton, target=target or skeleton.source)


def lint_spec(spec: Sequence[Any], target: str = "<spec>") -> LintReport:
    """Lint a generator spec tree (exact front end)."""
    skeleton = skeleton_from_spec(spec, source=target)
    return lint_skeleton(skeleton, target=target)


def lint_program(program: Any, target: str = "") -> LintReport:
    """Lint a :class:`~repro.runtime.program.TaskProgram` or bare body."""
    from repro.runtime.program import TaskProgram

    if isinstance(program, TaskProgram):
        name = target or f"program:{program.name}"
        return lint_function(program.body, target=name)
    if callable(program):
        return lint_function(program, target=target)
    return lint_spec(program, target=target or "<spec>")
