"""Online / streaming checking with bounded memory.

:class:`StreamingChecker` wraps a compactable checker (today: the
optimized checker) and consumes events *one at a time* -- attached live to
the runtime observer chain, or fed from a :class:`repro.trace.TraceReader`
stream (v2 JSONL and v3 columnar alike) without ever materializing the
trace.  Every ``window`` memory events it runs a *compaction sweep*,
calling the inner checker's ``compact()``.

The optimized checker frees its own dead local metadata -- a task's
cells when the task moves to its next step, its whole local space at its
end event -- so every check of it is bounded, streaming or not, and a
sweep finds nothing left to evict (``streaming.evicted`` reads 0).  The
wrapper stays, as a thin pass-through that counts events and sweeps and
samples ``streaming.peak_window``, until the streaming options are
deleted.  The report is byte-identical (after ``normalize_report``) to an
offline check at *every* window, including ``window=1`` and
no-compaction.  The global spaces stay resident -- they are the paper's
fixed twelve entries per location, i.e. program state, not trace state.

When streaming refuses
----------------------
Wrapping requires the inner checker to implement the compaction protocol
(a ``compact()`` method).  Checkers that keep trace-global state have
nothing sound to evict and are refused with a
:class:`~repro.errors.CheckerError`:

* ``velodrome`` (and ``velodrome+explorer``) -- the cross-location
  happens-before graph needs every node until the end of the trace;
* ``basic`` and ``regiontrack`` -- their completeness rests on unbounded
  per-location histories.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import CheckerError
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    SyncEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSpawnEvent,
)
from repro.runtime.observer import RuntimeObserver

#: Events between compaction sweeps when the caller does not say.
DEFAULT_WINDOW = 4096


def resolve_window(window: Optional[int], streaming: bool = True) -> Optional[int]:
    """Map a caller's ``window=`` to :class:`StreamingChecker`'s.

    ``None`` means :data:`DEFAULT_WINDOW` and ``0`` means unbounded (no
    periodic compaction, returned as ``None``).  A window on a check
    that does not stream is refused with a :class:`CheckerError`.
    """
    if window is not None and not streaming:
        raise CheckerError(
            "window= only applies to streaming checks; pass "
            "streaming=True (or drop window=)"
        )
    if window is None:
        return DEFAULT_WINDOW
    return None if window == 0 else window


class StreamingChecker(RuntimeObserver):
    """Windowed incremental wrapper around a compactable checker.

    Parameters
    ----------
    window:
        Memory events between compaction sweeps; ``None`` disables
        periodic compaction entirely (the ∞ window -- wrapper bookkeeping
        only, memory behaves like the offline checker).
    checker:
        Anything :func:`repro.checker.make_checker` accepts; the built
        inner checker must expose the compaction protocol (a ``compact()``
        method).  Extra keyword arguments go to the inner factory, e.g.
        ``StreamingChecker(checker="optimized", mode="thorough")``.
    """

    checker_name = "streaming"

    def __init__(
        self, window: Optional[int] = DEFAULT_WINDOW, checker="optimized", **checker_kwargs
    ) -> None:
        if window is not None and (not isinstance(window, int) or window < 1):
            raise CheckerError(
                f"streaming window must be a positive event count or None "
                f"(no periodic compaction), got {window!r}"
            )
        from repro.checker import checker_name_of, make_checker

        inner = make_checker(checker, **checker_kwargs)
        if not callable(getattr(inner, "compact", None)):
            raise CheckerError(
                f"checker {checker_name_of(inner)!r} cannot stream: it lacks "
                "the compaction protocol (a compact() method evicting "
                "provably dead metadata).  Trace-global analyses such as "
                "velodrome's happens-before graph, and unbounded-history "
                "checkers such as basic/regiontrack, have nothing sound to "
                "evict -- check them offline instead."
            )
        self.window = window
        self.inner = inner
        # Mirror the inner checker's capabilities: the wrapper adds no
        # requirement of its own and shards exactly when the inner does.
        self.requires_dpst = inner.requires_dpst
        self.requires_lca = getattr(inner, "requires_lca", inner.requires_dpst)
        self.location_sharded = inner.location_sharded
        self._since_sweep = 0
        # Observability (flushed at phase boundaries via metrics()).
        self._events = 0
        self._compactions = 0
        self._evicted = 0
        self._peak_window = 0

    # -- report / metrics delegation ---------------------------------------

    @property
    def report(self):
        return self.inner.report

    def metrics(self) -> Dict[str, int]:
        """Inner counters plus the streaming-specific ones.

        ``streaming.events`` partitions exactly across location-disjoint
        shards; the other three depend on per-shard sweep cadence and are
        listed in :data:`repro.obs.SHARD_SENSITIVE_METRICS`.
        """
        merged = dict(self.inner.metrics())
        merged["streaming.events"] = self._events
        merged["streaming.compactions"] = self._compactions
        merged["streaming.evicted"] = self._evicted
        merged["streaming.peak_window"] = self._peak_window
        return merged

    # -- compaction ---------------------------------------------------------

    def _live_entries(self) -> int:
        probe = getattr(self.inner, "total_local_entries", None)
        return probe() if callable(probe) else 0

    def _sweep(self) -> None:
        self._peak_window = max(self._peak_window, self._live_entries())
        self._evicted += self.inner.compact()
        self._compactions += 1
        self._since_sweep = 0

    # -- observer wiring ----------------------------------------------------

    def on_run_begin(self, run) -> None:
        self.inner.on_run_begin(run)

    def on_run_end(self, run) -> None:
        # Measure the trailing partial window, but do not sweep: the run is
        # over, and leaving the inner state untouched keeps post-run
        # metadata accounting (local_entries etc.) meaningful.
        self._peak_window = max(self._peak_window, self._live_entries())
        self.inner.on_run_end(run)

    def on_memory(self, event: MemoryEvent) -> None:
        self.inner.on_memory(event)
        self._events += 1
        if self.window is not None:
            self._since_sweep += 1
            if self._since_sweep >= self.window:
                self._sweep()

    def on_task_end(self, event: TaskEndEvent) -> None:
        self.inner.on_task_end(event)

    def on_task_spawn(self, event: TaskSpawnEvent) -> None:
        self.inner.on_task_spawn(event)

    def on_task_begin(self, event: TaskBeginEvent) -> None:
        self.inner.on_task_begin(event)

    def on_sync(self, event: SyncEvent) -> None:
        self.inner.on_sync(event)

    def on_acquire(self, event: AcquireEvent) -> None:
        self.inner.on_acquire(event)

    def on_release(self, event: ReleaseEvent) -> None:
        self.inner.on_release(event)
