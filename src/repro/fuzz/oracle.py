"""The differential oracle: every checking configuration must agree.

One generated program is recorded once (deterministic serial schedule)
and the resulting trace is pushed through the full configuration matrix:

===================  ====================================================
leg                  configuration
===================  ====================================================
``reference``        optimized checker (thorough), reference engine
                     (default LCA), ``jobs=1``
``<engine>-engine``  same checker under every *other* registered
                     parallelism engine (``labels-engine``,
                     ``vc-engine``, ``depa-engine``, ... -- derived from
                     :func:`repro.dpst.engines.available_engines`, so
                     registering an engine automatically extends the
                     matrix)
``sharded-jobs4``    same checker through the location-sharded pipeline
``replay``           JSONL record -> replay round-trip of the trace
``columnar``         binary columnar (v3) record -> replay round-trip --
                     the machine check that v2 and v3 serialization
                     produce identical reports
``cached``           the content-addressed result cache: the trace is
                     checked twice through one cache directory; the
                     second check must be a *hit* and the served report
                     must equal both the fresh result and the reference
``streaming``        ``check(streaming=True)`` over the same trace
``basic``            the paper's Figure 3 reference checker
``regiontrack-``     the sound-and-complete RegionTrack-style baseline
``precision``        (arXiv:2008.04479): the optimized checker must
                     implicate exactly the locations the complete
                     reference does -- the precision half of the oracle
                     sandwich (velodrome <= optimized <= regiontrack)
``paper-mode``       optimized checker in published-pseudocode mode
``schedule:*``       fresh executions under other schedules
===================  ====================================================

The legs above ``basic`` replay the *same* trace, so their reports must
match **triple-for-triple** (:func:`repro.report.normalize_report`).
The ``basic`` and ``regiontrack-precision`` legs must agree on the
*locations* implicated (:func:`repro.report.normalized_locations`):
they surface the same errors but may pick different witness triples.  ``paper-mode``
may under-report only in the documented corner topologies, so its
locations must be a *subset* of the reference.  The ``schedule:*`` legs
re-execute the program -- step node ids are schedule-dependent, but the
paper's central claim is that the implicated locations are not.

Any broken expectation becomes a :class:`Disagreement` carrying full
provenance: the seed, the spec, both configurations, and both normalized
verdicts -- everything the shrinker needs to reduce it and everything a
human needs to reproduce it.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.checker import BasicAtomicityChecker, OptAtomicityChecker
from repro.dpst.engines import available_engines
from repro.fuzz.generate import (
    FuzzConfig,
    ProgramGenerator,
    Spec,
    program_from_spec,
    spec_access_count,
)
from repro.report import (
    ViolationReport,
    normalize_report,
    normalized_locations,
)
from repro.runtime.executor import RandomOrderExecutor, SerialExecutor
from repro.runtime.program import run_program
from repro.session import CheckSession
from repro.trace.serialize import dump_trace

def exact_legs(reference: str = "lca") -> Tuple[str, ...]:
    """Leg names compared triple-for-triple against the reference.

    Derived from the engine registry: every registered engine other than
    *reference* contributes an ``<name>-engine`` leg.
    """
    engines = tuple(
        f"{name}-engine" for name in available_engines() if name != reference
    )
    return engines + (
        "sharded-jobs4",
        "replay",
        "columnar",
        "cached",
        "streaming",
    )


@dataclass(frozen=True)
class Disagreement:
    """One broken equivalence, with everything needed to reproduce it."""

    seed: Optional[int]
    left: str
    right: str
    #: ``"triples"`` (exact normal forms), ``"locations"`` (implicated
    #: location sets) or ``"subset"`` (right must be contained in left).
    level: str
    left_value: Any
    right_value: Any
    spec: Spec

    def describe(self) -> str:
        lines = [
            f"oracle disagreement (seed={self.seed}): "
            f"{self.left!r} vs {self.right!r} at {self.level} level",
            f"  {self.left}: {self.left_value!r}",
            f"  {self.right}: {self.right_value!r}",
            f"  spec: {self.spec!r}",
        ]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "left": self.left,
            "right": self.right,
            "level": self.level,
            "left_value": _jsonable(self.left_value),
            "right_value": _jsonable(self.right_value),
            "spec": _jsonable(self.spec),
        }


@dataclass
class OracleOutcome:
    """Everything one oracle pass computed about one program."""

    seed: Optional[int]
    spec: Spec
    #: Memory events in the reference trace.
    events: int
    #: Leg name -> normalized verdict (normal form or location tuple).
    verdicts: Dict[str, Any] = field(default_factory=dict)
    #: Notes per leg (e.g. the cache decision); never silent.
    notes: Dict[str, str] = field(default_factory=dict)
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def describe(self) -> str:
        if self.ok:
            return (
                f"oracle ok (seed={self.seed}): {len(self.verdicts)} legs "
                f"agree over {self.events} events"
            )
        return "\n".join(d.describe() for d in self.disagreements)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "events": self.events,
            "ok": self.ok,
            "spec": _jsonable(self.spec),
            "notes": dict(self.notes),
            "disagreements": [d.to_dict() for d in self.disagreements],
        }


def check_seed(
    seed: int,
    config: Optional[FuzzConfig] = None,
    jobs: int = 4,
    recorder: Any = None,
    engine: str = "lca",
) -> OracleOutcome:
    """Generate the program for *seed* and run the full matrix over it."""
    spec = ProgramGenerator(config).generate_spec(seed)
    return check_spec(spec, seed=seed, jobs=jobs, recorder=recorder, engine=engine)


def check_spec(
    spec: Spec,
    seed: Optional[int] = None,
    jobs: int = 4,
    recorder: Any = None,
    extra_checkers: Optional[Mapping[str, Callable[[], Any]]] = None,
    schedules: bool = True,
    engine: str = "lca",
) -> OracleOutcome:
    """Run the differential matrix over one spec tree.

    *jobs* sizes the sharded leg (``<= 1`` skips it).  *extra_checkers*
    maps names to zero-argument checker factories compared at the
    *location* level against the reference -- the hook the harness's own
    guard tests use to prove a deliberately broken checker is caught.
    *schedules* toggles the re-execution legs (the shrinker turns them
    off while bisecting trace-level disagreements, for speed).  *engine*
    picks the reference parallelism engine; every *other* registered
    engine gets its own exact-comparison leg regardless.
    """
    program = program_from_spec(
        spec, name=f"fuzz(seed={seed})" if seed is not None else "fuzz(spec)"
    )
    result = run_program(program, executor=SerialExecutor(), record_trace=True)
    trace = result.trace
    outcome = OracleOutcome(seed=seed, spec=spec, events=len(trace.memory_events()))

    session = CheckSession(trace, checker="optimized", jobs=1, engine=engine)
    reference = session.check(mode="thorough")
    ref_normal = normalize_report(reference)
    ref_locations = normalized_locations(reference)
    outcome.verdicts["reference"] = ref_normal

    def exact(name: str, report: ViolationReport) -> None:
        normal = normalize_report(report)
        outcome.verdicts[name] = normal
        if normal != ref_normal:
            outcome.disagreements.append(
                Disagreement(
                    seed, "reference", name, "triples", ref_normal, normal, spec
                )
            )

    def by_locations(name: str, report: ViolationReport) -> None:
        locations = normalized_locations(report)
        outcome.verdicts[name] = locations
        if locations != ref_locations:
            outcome.disagreements.append(
                Disagreement(
                    seed,
                    "reference",
                    name,
                    "locations",
                    ref_locations,
                    locations,
                    spec,
                )
            )

    # -- same-trace legs: must match triple-for-triple -------------------
    # One leg per registered engine other than the reference: the machine
    # check that LCA = labels = vc = depa (and any third-party engine).
    # Each setting gets its own session over the recorded trace.
    for other in available_engines():
        if other == engine:
            continue
        exact(
            f"{other}-engine",
            CheckSession(trace, engine=other).check(mode="thorough"),
        )
    if jobs and jobs > 1:
        exact(
            f"sharded-jobs{jobs}",
            CheckSession(trace, jobs=jobs, engine=engine).check(mode="thorough"),
        )
    exact("replay", _replay_roundtrip_leg(trace))
    exact("columnar", _columnar_roundtrip_leg(trace))
    exact("cached", _cached_check_leg(trace, spec, seed, outcome))
    exact("streaming", session.check(streaming=True, mode="thorough"))

    # -- cross-checker legs ----------------------------------------------
    by_locations("basic", session.check("basic"))
    # Precision against the sound-and-complete baseline: regiontrack
    # finds every real violation, so any location it implicates that the
    # optimized checker missed is a completeness bug -- and vice versa, a
    # location only the optimized checker reports is a false positive.
    by_locations("regiontrack-precision", session.check("regiontrack"))
    paper = session.check(mode="paper")
    paper_locations = normalized_locations(paper)
    outcome.verdicts["paper-mode"] = paper_locations
    if not set(paper_locations) <= set(ref_locations):
        outcome.disagreements.append(
            Disagreement(
                seed,
                "reference",
                "paper-mode",
                "subset",
                ref_locations,
                paper_locations,
                spec,
            )
        )

    for name, factory in (extra_checkers or {}).items():
        by_locations(name, CheckSession(trace, checker=factory()).check())

    # -- fresh-execution legs: locations are schedule-insensitive --------
    if schedules:
        for label, executor in (
            ("schedule:help-first-lifo", SerialExecutor(policy="help_first", order="lifo")),
            ("schedule:random", RandomOrderExecutor(seed=(seed or 0) ^ 0xBEEF)),
        ):
            checker = OptAtomicityChecker(mode="thorough")
            run_program(program, executor=executor, observers=[checker])
            locations = normalized_locations(checker.report)
            outcome.verdicts[label] = locations
            if locations != ref_locations:
                outcome.disagreements.append(
                    Disagreement(
                        seed,
                        "reference",
                        label,
                        "locations",
                        ref_locations,
                        locations,
                        spec,
                    )
                )

    if recorder is not None and recorder.enabled:
        recorder.count("fuzz.runs")
        recorder.count("fuzz.comparisons", max(0, len(outcome.verdicts) - 1))
        recorder.count("fuzz.events_checked", outcome.events)
        if not outcome.ok:
            recorder.count("fuzz.disagreements", len(outcome.disagreements))
    return outcome


def _replay_roundtrip_leg(trace: Any) -> ViolationReport:
    """Record the trace to streaming JSONL, read it back, re-check."""
    handle, path = tempfile.mkstemp(suffix=".jsonl", prefix="repro-fuzz-")
    os.close(handle)
    try:
        dump_trace(trace, path, format="jsonl")
        return CheckSession(path, checker="optimized", jobs=1).check(mode="thorough")
    finally:
        os.unlink(path)


def _columnar_roundtrip_leg(trace: Any) -> ViolationReport:
    """Record the trace to binary columnar v3, read it back, re-check."""
    handle, path = tempfile.mkstemp(suffix=".trc", prefix="repro-fuzz-")
    os.close(handle)
    try:
        dump_trace(trace, path, format="columnar")
        return CheckSession(path, checker="optimized", jobs=1).check(mode="thorough")
    finally:
        os.unlink(path)


def _cached_check_leg(
    trace: Any, spec: Spec, seed: Optional[int], outcome: OracleOutcome
) -> ViolationReport:
    """Check the serialized trace twice through one result cache.

    The second check must be served from the cache, and the served report
    must equal the freshly computed one; the returned (served) report is
    then exact-compared against the reference like any other leg.  A miss
    where a hit was due is itself a disagreement -- a silently dead cache
    would otherwise pass every equivalence check.
    """
    import shutil

    handle, path = tempfile.mkstemp(suffix=".trc", prefix="repro-fuzz-")
    os.close(handle)
    cache_dir = tempfile.mkdtemp(prefix="repro-fuzz-cache-")
    try:
        dump_trace(trace, path, format="columnar")
        fresh = CheckSession(path, checker="optimized", jobs=1).check(
            mode="thorough", cache_dir=cache_dir
        )
        second_session = CheckSession(path, checker="optimized", jobs=1)
        served = second_session.check(mode="thorough", cache_dir=cache_dir)
        info = second_session.cache_info or {}
        outcome.notes["cached"] = (
            f"applied={info.get('applied')} hit={info.get('hit')} "
            f"reason={info.get('reason', '')!r}"
        )
        if not info.get("hit"):
            outcome.disagreements.append(
                Disagreement(
                    seed,
                    "cached-fresh",
                    "cached",
                    "cache-hit",
                    True,
                    bool(info.get("hit")),
                    spec,
                )
            )
        if normalize_report(served) != normalize_report(fresh):
            outcome.disagreements.append(
                Disagreement(
                    seed,
                    "cached-fresh",
                    "cached",
                    "triples",
                    normalize_report(fresh),
                    normalize_report(served),
                    spec,
                )
            )
        return served
    finally:
        os.unlink(path)
        shutil.rmtree(cache_dir, ignore_errors=True)


def _jsonable(value: Any) -> Any:
    """Tuples -> lists, recursively, so provenance dumps as plain JSON."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    return value
