"""SPD3-style dynamic data-race detector.

The paper's analysis descends from DPST-based race detection (Raman et
al., PLDI 2012 -- SPD3; Mellor-Crummey 1991; Feng & Leiserson's
Nondeterminator).  This module implements that ancestry: a race detector
over the same DPST and runtime events, reporting pairs of accesses by
logically parallel steps to the same location where at least one writes
and no common lock protects both.

It exists for three reasons:

1. it is the substrate the paper's Section 1 contrasts against -- "a data
   race exists between two parallel tasks if ... at least one of the
   accesses is a write", versus atomicity violations which need a triple;
2. it lets tests demonstrate the paper's separation claims in both
   directions: programs with races but no atomicity violations (single
   accesses per step) and programs with atomicity violations but no races
   (Figure 11's lock-protected variant);
3. it reuses the SPD3 metadata shape the paper cites: per location, one
   writer slot and two reader slots whose steps can execute in parallel
   (the "shadow space" of SPD3), rather than a full access list.

Races are reported as :class:`RaceReport` records on ``races``; the
``report`` attribute stays an (always empty) :class:`ViolationReport` so
the detector composes with harnesses that merge checker reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.checker.annotations import AtomicAnnotations
from repro.errors import CheckerError
from repro.report import AccessInfo, ViolationReport
from repro.runtime.events import MemoryEvent
from repro.runtime.observer import RuntimeObserver

Location = Hashable


def _share_base_lock(mine: Tuple[str, ...], theirs: Tuple[str, ...]) -> bool:
    """Do two locksets hold a common base lock (version suffix stripped)?

    Mutual exclusion is by base lock: two critical sections of ``L`` can
    never overlap even though versioning gives them distinct names.
    """
    if not mine or not theirs:
        return False
    bases = {name.split("#", 1)[0] for name in mine}
    return any(name.split("#", 1)[0] in bases for name in theirs)


@dataclass(frozen=True)
class RaceReport:
    """One data race: two parallel, conflicting, unprotected accesses."""

    location: Location
    first: AccessInfo
    second: AccessInfo

    @property
    def key(self) -> Tuple[Location, int, int]:
        low, high = sorted((self.first.step, self.second.step))
        return (self.location, low, high)

    def describe(self) -> str:
        return (
            f"Data race on {self.location!r}: {self.first.describe()} "
            f"vs {self.second.describe()}"
        )


class _RaceCell:
    """SPD3-shaped per-location shadow: one writer, two readers."""

    __slots__ = ("writer", "reader1", "reader2")

    def __init__(self) -> None:
        self.writer: Optional[MemoryEvent] = None
        self.reader1: Optional[MemoryEvent] = None
        self.reader2: Optional[MemoryEvent] = None


class RaceDetector(RuntimeObserver):
    """DPST-based race detection with SPD3-style fixed shadow cells."""

    requires_dpst = True
    location_sharded = True
    checker_name = "racedetector"

    def __init__(self) -> None:
        #: Kept for harness compatibility; races are not atomicity
        #: violations, so this stays empty.
        self.report = ViolationReport()
        self.races: List[RaceReport] = []
        self._seen: set = set()
        self._cells: Dict[Location, _RaceCell] = {}
        self._engine = None
        self._annotations: Optional[AtomicAnnotations] = None
        self._annotations_trivial = True
        #: Accesses analyzed (observability counter; see repro.obs).
        self._accesses = 0

    # -- observer wiring ----------------------------------------------------

    def on_run_begin(self, run) -> None:
        engine = getattr(run, "engine", None)
        if engine is None or not callable(getattr(engine, "parallel", None)):
            raise CheckerError(
                "RaceDetector requires a parallelism engine "
                "(any repro.dpst.engines.ParallelismEngine)"
            )
        self._engine = engine
        self._annotations = run.annotations or AtomicAnnotations()
        self._annotations_trivial = self._annotations.trivial

    def on_memory(self, event: MemoryEvent) -> None:
        if self._annotations_trivial:
            key = event.location
        else:
            annotations = self._annotations
            if not annotations.is_checked(event.location):
                return
            key = annotations.metadata_key(event.location)
        self._accesses += 1
        cell = self._cells.get(key)
        if cell is None:
            cell = _RaceCell()
            self._cells[key] = cell
        if event.is_read:
            self._on_read(key, cell, event)
        else:
            self._on_write(key, cell, event)

    # -- SPD3 logic ------------------------------------------------------------

    def _racy(self, a: MemoryEvent, b: MemoryEvent) -> bool:
        """Parallel, conflicting, and not commonly locked."""
        if a.step == b.step:
            return False
        if not self._engine.parallel(a.step, b.step):
            return False
        if _share_base_lock(a.lockset, b.lockset):
            return False  # a common base lock orders the accesses
        return True

    def _on_read(self, key: Location, cell: _RaceCell, event: MemoryEvent) -> None:
        writer = cell.writer
        if writer is not None and self._racy(writer, event):
            self._record(key, writer, event)
        # Maintain up to two parallel readers (SPD3's reader pair); keep
        # the slot if its occupant is parallel with the newcomer.
        if cell.reader1 is None or not self._engine.parallel(
            cell.reader1.step, event.step
        ):
            cell.reader1 = event
        elif cell.reader2 is None or not self._engine.parallel(
            cell.reader2.step, event.step
        ):
            cell.reader2 = event

    def _on_write(self, key: Location, cell: _RaceCell, event: MemoryEvent) -> None:
        writer = cell.writer
        if writer is not None and self._racy(writer, event):
            self._record(key, writer, event)
        for reader in (cell.reader1, cell.reader2):
            if reader is not None and self._racy(reader, event):
                self._record(key, reader, event)
        # Keep the existing writer if it runs in parallel with the new
        # one (it can still race with future accesses the new writer is
        # ordered with); otherwise the new write supersedes it.
        if writer is None or not self._engine.parallel(writer.step, event.step):
            cell.writer = event

    def _record(self, key: Location, a: MemoryEvent, b: MemoryEvent) -> None:
        race = RaceReport(
            location=key, first=AccessInfo.of(a), second=AccessInfo.of(b)
        )
        if race.key in self._seen:
            return
        self._seen.add(race.key)
        self.races.append(race)

    # -- queries -----------------------------------------------------------------

    def race_locations(self) -> List[Location]:
        """Distinct locations with at least one race, in first-seen order."""
        seen: Dict[Location, None] = {}
        for race in self.races:
            seen.setdefault(race.location)
        return list(seen)

    def describe(self) -> str:
        if not self.races:
            return "no data races"
        lines = [f"{len(self.races)} data race(s):"]
        lines += [race.describe() for race in self.races]
        return "\n".join(lines)

    def metrics(self) -> Dict[str, int]:
        """Canonical ``repro.obs`` counters; shard-summable because races
        are detected and deduplicated per location."""
        return {
            "checker.accesses_checked": self._accesses,
            "checker.racedetector.races": len(self.races),
            "report.violations": len(self.report),
            "report.raw_findings": self.report.raw_count,
        }
