"""RegionTrack-style sound *and complete* baseline (arXiv:2008.04479).

RegionTrack observes that atomicity checking never needs the full access
history the basic checker keeps: every triple verdict depends only on the
access *types*, the performing step nodes ("atomic regions" here are the
DPST step nodes, exactly as in the rest of this repo), lockset disjointness
*within* a region, and region parallelism.  So one constant-size summary
per ``(location, step)`` region suffices:

* one witness read and one witness write (the interleaver ``A2`` role and
  the single-access side of a candidate check -- the interleaver's lockset
  is never consulted, so the first access of each type stands in for all);
* the first read / first write per *distinct lockset* (pair formation: a
  later access pairs with an earlier same-region access iff their locksets
  are disjoint, and all accesses sharing a lockset are interchangeable as
  the pair's first element);
* one witness pattern per kind (``RR``/``RW``/``WR``/``WW`` -- a second
  pair of a kind can never flag a location its first witness does not),
  held as its ``(A1, A3)`` events.

Every witness is the :class:`~repro.runtime.events.MemoryEvent` the
checker received, and the per-lockset firsts are keyed on the event's
lockset tuple, which the runtime records sorted.

Each access then (1) probes the pair witnesses of parallel regions as an
interleaver and (2) probes the single witnesses of parallel regions with
any newly formed pair -- the same symmetric closure as
:class:`~repro.checker.basic.BasicAtomicityChecker`, making the two
checkers agree location-for-location (pinned by
``tests/test_regiontrack.py`` and the ``regiontrack-precision`` fuzz
oracle leg).  Memory is ``O(locations x regions x distinct locksets)``
instead of the basic checker's ``O(dynamic accesses)``, and the per-access
scan touches summaries, not histories.

Together with velodrome (unsound-by-design, trace-sensitive) this anchors
the *complete* side of the oracle sandwich
``velodrome ⊑ optimized ⊑ regiontrack`` (DESIGN.md §7).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.checker.annotations import AtomicAnnotations
from repro.checker.patterns import Pattern, pattern_violated_by, triple_code
from repro.errors import CheckerError
from repro.report import AccessInfo, AtomicityViolation, ViolationReport
from repro.runtime.events import MemoryEvent
from repro.runtime.observer import RuntimeObserver

Location = Hashable


class _Region:
    """Constant-size summary of one (location, step) atomic region."""

    __slots__ = (
        "read_witness",
        "write_witness",
        "reads_by_lockset",
        "writes_by_lockset",
        "pairs",
        "probed_read_gen",
        "probed_write_gen",
    )

    def __init__(self) -> None:
        self.read_witness: Optional[MemoryEvent] = None
        self.write_witness: Optional[MemoryEvent] = None
        self.reads_by_lockset: Dict[Tuple[str, ...], MemoryEvent] = {}
        self.writes_by_lockset: Dict[Tuple[str, ...], MemoryEvent] = {}
        self.pairs: Dict[str, Pattern] = {}
        # Location pair-generation stamps: a repeat access of the same
        # type probes the (unchanged) parallel pair witnesses identically,
        # so it can be skipped -- the regiontrack analogue of the
        # optimized checker's global-space version memo.
        self.probed_read_gen = -1
        self.probed_write_gen = -1


class _LocationRegions:
    """All region summaries of one location/group."""

    __slots__ = ("by_step", "pair_gen")

    def __init__(self) -> None:
        self.by_step: Dict[int, _Region] = {}
        #: Bumped whenever any region of this location stores a new pair
        #: witness; regions stamp it after an interleaver probe.
        self.pair_gen = 0


class RegionTrackChecker(RuntimeObserver):
    """Per-region constant-size summaries; sound and complete per location."""

    requires_dpst = True
    location_sharded = True
    checker_name = "regiontrack"

    def __init__(self) -> None:
        self.report = ViolationReport()
        self._regions: Dict[Location, _LocationRegions] = {}
        self._engine = None
        self._annotations: Optional[AtomicAnnotations] = None
        self._annotations_trivial = True
        # Observability counters (see repro.obs).
        self._accesses = 0
        self._pair_witnesses = 0
        self._lockset_entries = 0
        self._triple_checks = 0
        self._memo_hits = 0

    # -- observer wiring ----------------------------------------------------

    def on_run_begin(self, run) -> None:
        engine = getattr(run, "engine", None)
        if engine is None or not callable(getattr(engine, "parallel", None)):
            raise CheckerError(
                "RegionTrackChecker requires a parallelism engine "
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
        location = self._regions.get(key)
        if location is None:
            location = _LocationRegions()
            self._regions[key] = location
        region = location.by_step.get(event.step)
        if region is None:
            region = _Region()
            location.by_step[event.step] = region
        self._probe_as_interleaver(key, location, region, event)
        new_pairs = self._form_pairs(location, region, event)
        for pattern in new_pairs:
            self._probe_pair_against_singles(key, location, pattern)
        self._record(region, event)

    # -- the two symmetric probes -------------------------------------------------

    def _probe_as_interleaver(
        self,
        key: Location,
        location: _LocationRegions,
        region: _Region,
        event: MemoryEvent,
    ) -> None:
        """Current access as ``A2`` against parallel regions' pair witnesses."""
        if event.is_read:
            if region.probed_read_gen == location.pair_gen:
                self._memo_hits += 1
                return
            region.probed_read_gen = location.pair_gen
        else:
            if region.probed_write_gen == location.pair_gen:
                self._memo_hits += 1
                return
            region.probed_write_gen = location.pair_gen
        parallel = self._engine.parallel
        for step, other in location.by_step.items():
            if step == event.step or not other.pairs:
                continue
            if not parallel(step, event.step):
                continue
            for pattern in other.pairs.values():
                self._triple_checks += 1
                if pattern_violated_by(pattern, event):
                    self._report(key, pattern, event)

    def _form_pairs(
        self, location: _LocationRegions, region: _Region, event: MemoryEvent
    ) -> List[Pattern]:
        """New pair witnesses ending at the current access.

        A pair needs disjoint locksets (Section 3.3 lock rule), hence the
        scan over the distinct-lockset firsts; the first disjoint witness
        of each kind is stored, later ones add nothing per location.
        """
        second_letter = "R" if event.is_read else "W"
        held = event.lockset
        formed: List[Pattern] = []

        def try_form(first: MemoryEvent, kind: str) -> None:
            if kind in region.pairs:
                return
            if held and first.lockset and not set(held).isdisjoint(first.lockset):
                return  # a common lock: one critical section
            pattern = (first, event)
            region.pairs[kind] = pattern
            location.pair_gen += 1
            self._pair_witnesses += 1
            formed.append(pattern)

        for first in region.reads_by_lockset.values():
            try_form(first, "R" + second_letter)
        for first in region.writes_by_lockset.values():
            try_form(first, "W" + second_letter)
        return formed

    def _probe_pair_against_singles(
        self, key: Location, location: _LocationRegions, pattern: Pattern
    ) -> None:
        """New pair as ``(A1, A3)`` against parallel regions' witnesses."""
        parallel = self._engine.parallel
        step = pattern[0].step
        for other_step, other in location.by_step.items():
            if other_step == step or not parallel(other_step, step):
                continue
            for single in (other.write_witness, other.read_witness):
                if single is None:
                    continue
                self._triple_checks += 1
                if pattern_violated_by(pattern, single):
                    self._report(key, pattern, single)

    def _record(self, region: _Region, event: MemoryEvent) -> None:
        if event.is_read:
            if region.read_witness is None:
                region.read_witness = event
            if event.lockset not in region.reads_by_lockset:
                region.reads_by_lockset[event.lockset] = event
                self._lockset_entries += 1
        else:
            if region.write_witness is None:
                region.write_witness = event
            if event.lockset not in region.writes_by_lockset:
                region.writes_by_lockset[event.lockset] = event
                self._lockset_entries += 1

    def _report(
        self, key: Location, pattern: Pattern, interleaver: MemoryEvent
    ) -> None:
        first, third = pattern
        self.report.add(
            AtomicityViolation(
                location=key,
                first=AccessInfo.of(first),
                second=AccessInfo.of(interleaver),
                third=AccessInfo.of(third),
                pattern=triple_code(
                    first.access_type,
                    interleaver.access_type,
                    third.access_type,
                ),
                checker=self.checker_name,
            )
        )

    # -- introspection -------------------------------------------------------------

    def total_regions(self) -> int:
        """Region summaries materialized across all locations."""
        return sum(len(loc.by_step) for loc in self._regions.values())

    # -- observability (repro.obs metric registry) ---------------------------------

    def metrics(self) -> Dict[str, int]:
        """Canonical ``repro.obs`` counters; shard-summable like the
        other per-location checkers."""
        return {
            "checker.accesses_checked": self._accesses,
            "checker.regiontrack.regions": self.total_regions(),
            "checker.regiontrack.pair_witnesses": self._pair_witnesses,
            "checker.regiontrack.lockset_entries": self._lockset_entries,
            "checker.regiontrack.triple_checks": self._triple_checks,
            "checker.regiontrack.memo_hits": self._memo_hits,
            "checker.regiontrack.tracked_locations": len(self._regions),
            "report.violations": len(self.report),
            "report.raw_findings": self.report.raw_count,
        }
