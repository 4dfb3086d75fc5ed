"""Atomicity-violation reports.

A checker never raises on a violation -- dynamic analyses must keep running
so that a single execution can surface *every* error.  Instead each checker
accumulates :class:`AtomicityViolation` records into a
:class:`ViolationReport`, which supports deduplication, filtering and
human-readable rendering.

The key object is the *unserializable triple* ``(A1, A2, A3)`` of the paper's
Figure 4: ``A1`` and ``A3`` are performed by the same step node of one task
and ``A2`` is performed by a step node of a logically parallel task.  The
triple witnesses a schedule in which ``A2`` interleaves between ``A1`` and
``A3`` and the resulting trace is not conflict serializable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

#: Version stamp of the report JSON layout (shard checkpoints, tooling).
REPORT_SCHEMA = "repro-report/1"

#: Access types.  Kept as plain strings for cheap comparisons and readable
#: reprs; the two legal values are re-exported as constants.
READ = "read"
WRITE = "write"

Location = Hashable


def _short(access_type: str) -> str:
    """Return the single-letter rendering of an access type."""
    return "W" if access_type == WRITE else "R"


@dataclass(frozen=True)
class AccessInfo:
    """One memory access as it appears in a violation report.

    Attributes
    ----------
    step:
        Identifier of the DPST step node that performed the access.
    access_type:
        :data:`READ` or :data:`WRITE`.
    location:
        The shared memory location accessed.
    task:
        Identifier of the task whose step performed the access, if known.
    lockset:
        The (versioned) set of lock names held at the access, if tracked.
    """

    step: int
    access_type: str
    location: Location
    task: Optional[int] = None
    lockset: Tuple[str, ...] = ()

    def describe(self) -> str:
        """Render the access as e.g. ``W(x) by step 4 [task 2] {L}``."""
        parts = [f"{_short(self.access_type)}({self.location!r}) by step {self.step}"]
        if self.task is not None:
            parts.append(f"[task {self.task}]")
        if self.lockset:
            parts.append("{" + ", ".join(sorted(self.lockset)) + "}")
        return " ".join(parts)


@dataclass(frozen=True)
class AtomicityViolation:
    """An unserializable triple detected by a checker.

    ``first`` and ``third`` are the two accesses performed by the same step
    node; ``second`` is the interleaving access from a logically parallel
    step.  ``pattern`` is the three-letter code such as ``"RWR"`` (Fig. 4),
    and ``checker`` names the analysis that produced the report.
    """

    location: Location
    first: AccessInfo
    second: AccessInfo
    third: AccessInfo
    pattern: str
    checker: str = ""

    @property
    def key(self) -> Tuple[Location, int, int, int, str]:
        """Deduplication key: location, the three steps and the pattern."""
        return (
            self.location,
            self.first.step,
            self.second.step,
            self.third.step,
            self.pattern,
        )

    def describe(self) -> str:
        """Render a multi-line human-readable description."""
        lines = [
            f"Atomicity violation on location {self.location!r} "
            f"(pattern {self.pattern})"
        ]
        lines.append(f"  A1: {self.first.describe()}")
        lines.append(f"  A2: {self.second.describe()}  <-- interleaving parallel access")
        lines.append(f"  A3: {self.third.describe()}")
        if self.checker:
            lines.append(f"  reported by: {self.checker}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TraceCycleViolation:
    """A Velodrome-style violation: a cycle in the transactional HB graph.

    Velodrome reports a violation when the transaction (here: step node)
    graph of the *observed trace* acquires a cycle.  The report carries the
    transactions on the cycle and the location whose access closed it.
    """

    location: Location
    cycle: Tuple[int, ...]
    closing_access: AccessInfo
    checker: str = "velodrome"

    @property
    def key(self) -> Tuple[Location, Tuple[int, ...]]:
        return (self.location, tuple(sorted(self.cycle)))

    def describe(self) -> str:
        chain = " -> ".join(str(node) for node in self.cycle)
        return (
            f"Trace atomicity violation on location {self.location!r}: "
            f"transaction cycle {chain} closed by {self.closing_access.describe()}"
        )


class ViolationReport:
    """An append-only, deduplicating collection of violations.

    Checkers call :meth:`add` freely; duplicates (same location, steps and
    pattern) are recorded once.  The report behaves like a sequence of the
    distinct violations in first-seen order.
    """

    def __init__(self) -> None:
        self._violations: List[AtomicityViolation] = []
        self._cycles: List[TraceCycleViolation] = []
        self._seen: Dict[object, int] = {}
        #: Total number of ``add`` calls, including duplicates.  Useful for
        #: tests asserting how chatty a checker is.
        self.raw_count = 0

    # -- population ------------------------------------------------------

    def add(self, violation: AtomicityViolation) -> bool:
        """Record *violation*; return ``True`` iff it was not seen before."""
        self.raw_count += 1
        key = ("triple", violation.key)
        if key in self._seen:
            return False
        self._seen[key] = len(self._violations)
        self._violations.append(violation)
        return True

    def add_cycle(self, violation: TraceCycleViolation) -> bool:
        """Record a Velodrome cycle violation; return ``True`` if new."""
        self.raw_count += 1
        key = ("cycle", violation.key)
        if key in self._seen:
            return False
        self._seen[key] = len(self._cycles)
        self._cycles.append(violation)
        return True

    def extend(self, other: "ViolationReport") -> None:
        """Merge another report into this one (deduplicating).

        ``raw_count`` accumulates *other*'s full raw count -- the number
        of ``add`` calls its checker made, duplicates included -- not the
        number of distinct records copied over.  Chattiness statistics
        therefore survive any chain of ``extend``/``merge`` calls
        unchanged, even when shards report duplicate violations.
        """
        raw_before = self.raw_count
        for violation in other._violations:
            self.add(violation)
        for cycle in other._cycles:
            self.add_cycle(cycle)
        # The add() calls above counted each *distinct* record once;
        # restore the true total so duplicates are neither dropped nor
        # double-counted.
        self.raw_count = raw_before + other.raw_count

    @classmethod
    def merge(cls, reports: Iterable["ViolationReport"]) -> "ViolationReport":
        """Merge *reports* into a fresh deduplicated report.

        The workhorse of the sharded pipeline: per-shard reports are
        disjoint by location, so merging is pure concatenation, but the
        deduplication keys still guard against overlapping inputs.
        ``raw_count`` sums the inputs' raw counts (see :meth:`extend`).
        """
        merged = cls()
        for report in reports:
            merged.extend(report)
        return merged

    # -- queries ----------------------------------------------------------

    @property
    def violations(self) -> List[AtomicityViolation]:
        """The distinct triple violations, in first-seen order."""
        return list(self._violations)

    @property
    def cycles(self) -> List[TraceCycleViolation]:
        """The distinct trace-cycle violations, in first-seen order."""
        return list(self._cycles)

    def __len__(self) -> int:
        return len(self._violations) + len(self._cycles)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[object]:
        yield from self._violations
        yield from self._cycles

    def locations(self) -> List[Location]:
        """Distinct locations implicated in any violation, stable order."""
        seen: Dict[Location, None] = {}
        for violation in self._violations:
            seen.setdefault(violation.location)
        for cycle in self._cycles:
            seen.setdefault(cycle.location)
        return list(seen)

    def for_location(self, location: Location) -> List[AtomicityViolation]:
        """Triple violations reported against *location*."""
        return [v for v in self._violations if v.location == location]

    def patterns(self) -> List[str]:
        """Sorted distinct Fig. 4 pattern codes present in the report."""
        return sorted({v.pattern for v in self._violations})

    # -- rendering ---------------------------------------------------------

    def describe(self) -> str:
        """Render the whole report; ``"no violations"`` when empty."""
        if not self:
            return "no violations"
        blocks: List[str] = []
        for violation in self._violations:
            blocks.append(violation.describe())
        for cycle in self._cycles:
            blocks.append(cycle.describe())
        header = f"{len(self)} distinct violation(s):"
        return "\n".join([header, *blocks])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<ViolationReport {len(self)} violation(s)>"


def merge_reports(reports: Iterable[ViolationReport]) -> ViolationReport:
    """Merge many reports into a fresh deduplicated one.

    Functional alias of :meth:`ViolationReport.merge`.
    """
    return ViolationReport.merge(reports)


# ---------------------------------------------------------------------------
# Normalization (equivalence comparisons)
# ---------------------------------------------------------------------------
#
# Two reports produced by different pipeline configurations (engines,
# sharding, streaming, replay) must be comparable without depending on
# first-seen order, dict iteration order, or the mutual orderability of
# heterogeneous location values.  The canonical forms below are what the
# equivalence tests and the differential fuzzing oracle
# (:mod:`repro.fuzz.oracle`) compare.


def location_key(location: Location) -> str:
    """A totally-ordered, type-stable key for any location value."""
    return repr(location)


def normalize_report(report: ViolationReport) -> Tuple[Tuple[Any, ...], Tuple[Any, ...]]:
    """The canonical order-independent form of *report*.

    Returns ``(triples, cycles)`` where ``triples`` is the sorted tuple of
    ``(location_key, pattern, first_step, second_step, third_step)`` rows
    and ``cycles`` the sorted tuple of ``(location_key, sorted_cycle)``
    rows.  Two reports over the *same* trace are equivalent iff their
    normal forms are equal, regardless of the order violations were found
    in or which pipeline configuration found them.
    """
    triples = tuple(
        sorted(
            (
                location_key(v.location),
                v.pattern,
                v.first.step,
                v.second.step,
                v.third.step,
            )
            for v in report.violations
        )
    )
    cycles = tuple(
        sorted(
            (location_key(c.location), tuple(sorted(c.cycle)))
            for c in report.cycles
        )
    )
    return (triples, cycles)


def normalize_locations(locations: Iterable[Location]) -> Tuple[str, ...]:
    """Sorted distinct :func:`location_key` values of a location iterable.

    For comparing a report's implicated locations against analyses that
    produce bare location sets (the analytic oracle, the interleaving
    explorer) on equal, totally-ordered footing.
    """
    return tuple(sorted({location_key(loc) for loc in locations}))


def normalized_locations(report: ViolationReport) -> Tuple[str, ...]:
    """Sorted distinct :func:`location_key` values implicated in *report*.

    The right granularity for comparing analyses that agree on *where*
    violations exist but legitimately differ in which witness triples they
    surface (e.g. the basic checker vs the optimized checker).
    """
    return normalize_locations(report.locations())


# ---------------------------------------------------------------------------
# JSON round-trip (shard checkpoints, external tooling)
# ---------------------------------------------------------------------------
#
# Locations are arbitrary hashable values (strings, ints, tuples ...);
# they reuse the trace serializer's tagged encoding so a report restored
# from JSON deduplicates and merges exactly like the original.  The
# imports are lazy to keep repro.report dependency-free at import time.


def _access_to_dict(access: AccessInfo) -> Dict[str, Any]:
    from repro.trace.serialize import encode_location

    return {
        "step": access.step,
        "access_type": access.access_type,
        "location": encode_location(access.location),
        "task": access.task,
        "lockset": list(access.lockset),
    }


def _access_from_dict(data: Dict[str, Any]) -> AccessInfo:
    from repro.trace.serialize import decode_location

    return AccessInfo(
        step=int(data["step"]),
        access_type=data["access_type"],
        location=decode_location(data["location"]),
        task=data.get("task"),
        lockset=tuple(data.get("lockset", ())),
    )


def report_to_dict(report: ViolationReport) -> Dict[str, Any]:
    """Encode *report* as one JSON-safe dict (schema ``repro-report/1``).

    First-seen order, ``raw_count`` and both violation kinds survive, so
    ``report_from_dict(report_to_dict(r))`` renders and merges exactly
    like ``r`` -- the property shard checkpoints rely on.
    """
    from repro.trace.serialize import encode_location

    return {
        "schema": REPORT_SCHEMA,
        "raw_count": report.raw_count,
        "violations": [
            {
                "location": encode_location(v.location),
                "first": _access_to_dict(v.first),
                "second": _access_to_dict(v.second),
                "third": _access_to_dict(v.third),
                "pattern": v.pattern,
                "checker": v.checker,
            }
            for v in report.violations
        ],
        "cycles": [
            {
                "location": encode_location(c.location),
                "cycle": list(c.cycle),
                "closing_access": _access_to_dict(c.closing_access),
                "checker": c.checker,
            }
            for c in report.cycles
        ],
    }


def report_from_dict(data: Dict[str, Any]) -> ViolationReport:
    """Inverse of :func:`report_to_dict`."""
    from repro.trace.serialize import decode_location

    if not isinstance(data, dict) or data.get("schema") != REPORT_SCHEMA:
        raise ValueError(
            f"not a serialized ViolationReport: {type(data).__name__} "
            f"with schema {data.get('schema')!r}"
            if isinstance(data, dict)
            else f"not a serialized ViolationReport: {type(data).__name__}"
        )
    report = ViolationReport()
    for row in data.get("violations", []):
        report.add(
            AtomicityViolation(
                location=decode_location(row["location"]),
                first=_access_from_dict(row["first"]),
                second=_access_from_dict(row["second"]),
                third=_access_from_dict(row["third"]),
                pattern=row["pattern"],
                checker=row.get("checker", ""),
            )
        )
    for row in data.get("cycles", []):
        report.add_cycle(
            TraceCycleViolation(
                location=decode_location(row["location"]),
                cycle=tuple(row["cycle"]),
                closing_access=_access_from_dict(row["closing_access"]),
                checker=row.get("checker", "velodrome"),
            )
        )
    # The add() calls counted each distinct record once; restore the
    # recorded chattiness.
    report.raw_count = int(data.get("raw_count", report.raw_count))
    return report
