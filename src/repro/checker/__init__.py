"""Atomicity checkers.

Six analyses and a streaming wrapper, all consuming runtime events as
:class:`~repro.runtime.observer.RuntimeObserver` subclasses.  Each stores
the :class:`~repro.runtime.events.MemoryEvent` it receives as its access
record, and reports an access as
:meth:`AccessInfo.of(event) <repro.report.AccessInfo.of>`:

* :class:`~repro.checker.basic.BasicAtomicityChecker` -- the paper's
  Figure 3 algorithm: unbounded per-location access histories, checked on
  every access.  Sound and complete but metadata grows with the number of
  dynamic accesses.
* :class:`~repro.checker.optimized.OptAtomicityChecker` -- the paper's
  contribution (Figures 6-9 plus Section 3.3): twelve fixed global access
  history entries per location plus two per-task local entries, with
  lockset tracking and lock versioning.  Detects atomicity violations that
  can occur in *any* schedule for the given input.
* :class:`~repro.checker.velodrome.VelodromeChecker` -- the reimplemented
  baseline (Flanagan, Freund & Yi, PLDI 2008) at step-node granularity:
  builds the transactional happens-before graph of the *observed trace*
  and reports cycles.  Trace-sensitive by design, which is exactly the
  contrast the paper's Figure 13 draws.
* :class:`~repro.checker.exploring.ExploringVelodrome` -- Velodrome over
  every schedule an interleaving explorer enumerates from the recorded
  trace: the paper's Section 4 strawman.
* :class:`~repro.checker.racedetector.RaceDetector` -- SPD3-style data
  race detection over the same DPST: pairs of parallel, conflicting,
  unprotected accesses rather than triples.
* :class:`~repro.checker.regiontrack.RegionTrackChecker` -- sound *and*
  complete trace-level baseline (RegionTrack, arXiv:2008.04479):
  constant-size per-region summaries instead of full histories; the
  complete anchor of the fuzz oracle's precision sandwich.
* :class:`~repro.checker.streaming.StreamingChecker` -- windowed online
  wrapper: consumes events one at a time (live or from a TraceReader
  stream) and compacts dead metadata every ``window`` events, bounding
  peak memory by the window instead of the trace.
"""

from repro.errors import CheckerError
from repro.runtime.observer import RuntimeObserver

from repro.checker.annotations import AtomicAnnotations
from repro.checker.patterns import (
    UNSERIALIZABLE_PATTERNS,
    is_unserializable_triple,
    serializability_table,
)
from repro.checker.basic import BasicAtomicityChecker
from repro.checker.metadata import GlobalSpace, LocalCell, LocalSpace
from repro.checker.optimized import OptAtomicityChecker
from repro.checker.velodrome import VelodromeChecker
from repro.checker.racedetector import RaceDetector, RaceReport
from repro.checker.exploring import ExploringVelodrome
from repro.checker.regiontrack import RegionTrackChecker
from repro.checker.streaming import DEFAULT_WINDOW, StreamingChecker

__all__ = [
    "AtomicAnnotations",
    "UNSERIALIZABLE_PATTERNS",
    "is_unserializable_triple",
    "serializability_table",
    "BasicAtomicityChecker",
    "GlobalSpace",
    "LocalCell",
    "LocalSpace",
    "OptAtomicityChecker",
    "VelodromeChecker",
    "RaceDetector",
    "RaceReport",
    "ExploringVelodrome",
    "RegionTrackChecker",
    "StreamingChecker",
    "DEFAULT_WINDOW",
    "CHECKER_FACTORIES",
    "UnknownCheckerError",
    "make_checker",
    "checker_name_of",
]


#: Registry of checker factories addressable by name.
CHECKER_FACTORIES = {
    "basic": BasicAtomicityChecker,
    "optimized": OptAtomicityChecker,
    "velodrome": VelodromeChecker,
    "racedetector": RaceDetector,
    "velodrome+explorer": ExploringVelodrome,
    "regiontrack": RegionTrackChecker,
    "streaming": StreamingChecker,
}


class UnknownCheckerError(CheckerError, ValueError):
    """An unknown checker name, class, or object was requested.

    Subclasses :class:`ValueError` as well so long-standing
    ``except ValueError`` callers of :func:`make_checker` keep working.
    """


def make_checker(checker="optimized", **kwargs):
    """Create a checker from a name, a checker class, or an instance.

    Accepted forms:

    * a registered name -- ``"basic"`` | ``"optimized"`` | ``"velodrome"``
      | ``"racedetector"`` | ``"velodrome+explorer"`` | ``"regiontrack"``
      | ``"streaming"``;
    * a :class:`~repro.runtime.observer.RuntimeObserver` subclass, which is
      instantiated with ``**kwargs``;
    * a pre-built observer instance, returned as-is (``kwargs`` must then
      be empty -- the instance is already configured).

    Anything else raises :class:`UnknownCheckerError` (a
    :class:`~repro.errors.CheckerError`).
    """
    if isinstance(checker, str):
        factory = CHECKER_FACTORIES.get(checker)
        if factory is None:
            raise UnknownCheckerError(
                f"unknown checker {checker!r}; expected one of "
                f"{sorted(CHECKER_FACTORIES)}"
            )
        return factory(**kwargs)
    if isinstance(checker, type) and issubclass(checker, RuntimeObserver):
        return checker(**kwargs)
    if isinstance(checker, RuntimeObserver):
        if kwargs:
            raise UnknownCheckerError(
                f"checker instance {checker!r} cannot take keyword "
                f"arguments {sorted(kwargs)}; configure it at construction"
            )
        return checker
    raise UnknownCheckerError(
        f"cannot build a checker from {checker!r}; pass a registered name, "
        "a RuntimeObserver subclass, or a checker instance"
    )


def checker_name_of(checker) -> str:
    """Best-effort display name for any :func:`make_checker` input."""
    if isinstance(checker, str):
        return checker
    if isinstance(checker, type):
        return getattr(checker, "checker_name", checker.__name__)
    return getattr(checker, "checker_name", type(checker).__name__)
