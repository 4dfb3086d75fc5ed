"""Online / streaming checking with bounded memory.

:class:`StreamingChecker` wraps a compactable checker (today: the
optimized checker) and consumes events *one at a time* -- attached live to
the runtime observer chain, or fed from a :class:`repro.trace.TraceReader`
stream (v2 JSONL and v3 columnar alike) without ever materializing the
trace.  Every ``window`` memory events it runs a *compaction sweep*:

* :meth:`~repro.checker.optimized.OptAtomicityChecker.release_task` for
  every task whose end event fell inside the window (a finished task never
  accesses again, so its local metadata is dead);
* :meth:`~repro.checker.optimized.OptAtomicityChecker.compact` to evict
  *stale* local cells -- cells stamped with an older step than their
  task's newest, which ``cell_for`` would replace on the next touch
  anyway.

Both evictions are observationally invisible: no check path ever reads an
evicted cell again, so the report is byte-identical (after
``normalize_report``) to an offline check at *every* window, including
``window=1`` and no-compaction.  What the window buys is memory: peak live
local metadata is bounded by the eviction debt one window can accumulate
(live tasks plus stale cells created since the last sweep), not by the
number of tasks or events in the trace.  The global spaces stay resident
-- they are the paper's fixed twelve entries per location, i.e. program
state, not trace state.

When streaming refuses
----------------------
Wrapping requires the inner checker to implement the compaction protocol
(``compact()``; ``release_task()`` is optional).  Checkers that keep
trace-global state have nothing sound to evict and are refused with a
:class:`~repro.errors.CheckerError`:

* ``velodrome`` (and ``velodrome+explorer``) -- the cross-location
  happens-before graph needs every node until the end of the trace;
* ``basic`` and ``regiontrack`` -- their completeness rests on unbounded
  per-location histories.
"""

from __future__ import annotations

from typing import Dict, List, Optional

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
    #: Task ends in the stream release finished tasks at the next sweep.
    requires_full_stream = True

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
        self._ended_tasks: List[int] = []
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
        release = getattr(self.inner, "release_task", None)
        if self._ended_tasks and callable(release):
            for task_id in self._ended_tasks:
                self._evicted += release(task_id)
        self._ended_tasks.clear()
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
        # Release lazily at the next sweep so *all* eviction is governed by
        # the window (window=None really does mean "never evict").
        self._ended_tasks.append(event.task)

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
