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

The pass also proves locations *schedule-serial*: an exact location whose
accessing steps are pairwise non-parallel (and not self-parallel) can
never participate in any violation, on any input, under any schedule --
the fact the sharded checker's ``--static-prefilter`` consumes.  The
proof is **per location**: an imprecision poisons only the locations it
may touch.  An imprecise access pattern poisons every location it
may-alias; a localized skeleton note (one carrying ``patterns``) poisons
the locations those patterns may match; only imprecisions with an
unknown blast radius -- unresolved task bodies, ctx escapes, exceeded
budgets, over-trusted control flow -- poison the whole program.  The
proof never consults locksets, so lock-related notes (imbalances,
dynamic lock names) do not poison anything: soundness rests solely on
the skeleton over-approximating accesses and parallelism.

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
    ACCESS_HIDING_NOTE_KINDS,
    SkeletonNote,
    StaticAccess,
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

#: Note kinds whose blast radius is unknown: they may hide accesses or
#: parallelism anywhere, so they poison every location's serial proof.
#: (``recursive-inline`` joins them only when its note carries no
#: localizing patterns; lock-related notes never poison -- the serial
#: proof does not consult locksets.)
GLOBAL_POISON_NOTE_KINDS = ACCESS_HIDING_NOTE_KINDS | {"control-flow-skip"}


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
        serial_locations: FrozenSet[Location],
        poisoned_locations: Optional[Dict[Location, Tuple[str, ...]]] = None,
        suppressed: Optional[List[Diagnostic]] = None,
    ) -> None:
        self.target = target
        self.skeleton = skeleton
        self.mhp = mhp
        #: Candidate triples, exact first.
        self.candidates = candidates
        #: Active diagnostics (candidates included), severity-major order.
        self.diagnostics = diagnostics
        #: Exact locations individually proven schedule-serial.
        self.serial_locations = serial_locations
        #: Exact locations whose steps are serial but whose proof an
        #: imprecision voided, mapped to the human-readable reasons.
        self.poisoned_locations: Dict[Location, Tuple[str, ...]] = (
            poisoned_locations or {}
        )
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

    @property
    def prefilter_safe(self) -> bool:
        """Is the whole skeleton exact (no approximations anywhere)?

        Historical all-or-nothing gate, kept for introspection: the
        prefilter itself now trusts :attr:`serial_locations` per
        location, so a partially-imprecise program still filters its
        individually-proven locations.
        """
        return self.skeleton.is_exact

    def prefilter_locations(self) -> FrozenSet[Location]:
        """Locations the dynamic checker may skip.

        Each one is individually proven: its accessing steps are
        pairwise schedule-serial and no imprecision -- imprecise access
        pattern, approximated helper, unresolved body -- may touch it.
        """
        return self.serial_locations

    def callgraph_stats(self) -> Optional[Dict[str, int]]:
        """``static.callgraph.*`` counters, when the AST front end ran."""
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
        if self.serial_locations:
            rendered = ", ".join(
                sorted(repr(loc) for loc in self.serial_locations)
            )
            lines.append(
                f"  schedule-serial location(s) [prefilterable]: {rendered}"
            )
        if self.poisoned_locations:
            for location in sorted(
                self.poisoned_locations, key=repr
            ):
                reasons = "; ".join(self.poisoned_locations[location])
                lines.append(
                    f"  poisoned location {location!r}: {reasons}"
                )
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
            "prefilter_safe": self.prefilter_safe,
            "serial_locations": sorted(
                repr(loc) for loc in self.serial_locations
            ),
            "prefilter": {
                "proven": sorted(repr(loc) for loc in self.serial_locations),
                "poisoned": {
                    repr(location): list(reasons)
                    for location, reasons in sorted(
                        self.poisoned_locations.items(), key=lambda kv: repr(kv[0])
                    )
                },
            },
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


def _global_poison_reasons(skeleton: StaticSkeleton) -> List[str]:
    """Reasons that void *every* location's serial proof."""
    reasons: List[str] = []
    for note in skeleton.notes:
        if note.kind in GLOBAL_POISON_NOTE_KINDS or note.hides_accesses:
            reason = f"{note.kind} @ {note.site}"
            if reason not in reasons:
                reasons.append(reason)
    return reasons


def _prefilter_analysis(
    skeleton: StaticSkeleton, mhp: MHPIndex
) -> Tuple[FrozenSet[Location], Dict[Location, Tuple[str, ...]]]:
    """Per-location serial proofs and what poisons the failed ones.

    Returns ``(serial, poisoned)``: *serial* holds exact locations whose
    accessing steps are pairwise non-parallel AND that no imprecision
    may touch; *poisoned* maps locations whose steps are serial but
    whose proof an imprecision voided to the reasons.  Locations with
    genuinely parallel accesses appear in neither -- they are the
    checker's job, not a precision loss.
    """
    exact_groups: Dict[Location, List[StaticAccess]] = {}
    imprecise: List[StaticAccess] = []
    for access in skeleton.accesses:
        if access.kind == EXACT:
            exact_groups.setdefault(access.location, []).append(access)
        else:
            imprecise.append(access)
    global_reasons = _global_poison_reasons(skeleton)
    localized_notes = [
        note
        for note in skeleton.notes
        if note.patterns
        and note.kind not in GLOBAL_POISON_NOTE_KINDS
    ]
    serial: set = set()
    poisoned: Dict[Location, Tuple[str, ...]] = {}
    for location, group in exact_groups.items():
        steps = list({access.step for access in group})
        if any(mhp.self_parallel(step) for step in steps):
            continue
        if any(
            mhp.parallel(steps[i], steps[j])
            for i in range(len(steps))
            for j in range(i + 1, len(steps))
        ):
            continue
        representative = group[0]
        reasons = list(global_reasons)
        for other in imprecise:
            if other.may_alias(representative):
                reasons.append(
                    f"imprecise access {other.pattern.describe()} @ {other.site}"
                )
        for note in localized_notes:
            if any(pattern.matches(location) for pattern in note.patterns):
                reasons.append(f"{note.kind} @ {note.site}")
        if reasons:
            poisoned[location] = tuple(dict.fromkeys(reasons))
        else:
            serial.add(location)
    return frozenset(serial), poisoned


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
    serial, poisoned = _prefilter_analysis(skeleton, mhp)
    return LintReport(
        target=target or skeleton.source,
        skeleton=skeleton,
        mhp=mhp,
        candidates=candidates,
        diagnostics=active,
        serial_locations=serial,
        poisoned_locations=poisoned,
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
