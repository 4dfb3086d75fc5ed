"""The :class:`Recorder` protocol: how the pipeline emits observability.

Design constraint (ISSUE 2, paper Section 5): the checking hot paths run
millions of events, so the *disabled* configuration must cost nothing
measurable.  The layer therefore follows the flush pattern:

* the checkers and engines accumulate plain integer counters as part of
  their normal bookkeeping (no recorder calls per event);
* pipeline drivers (replay, ``run_program``, the sharded driver) test
  ``recorder.enabled`` **once** and only then wrap work in spans and
  flush the accumulated counters at phase boundaries.

:data:`NULL_RECORDER` -- an instance of the no-op base class -- is the
default everywhere; ``benchmarks/bench_obs_overhead.py`` holds the
disabled path to <2% overhead on a 100k-event trace.

Span paths nest lexically: entering ``"replay"`` inside ``"check"``
aggregates under ``"check/replay"``.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import MetricsSnapshot, SpanStats


class _NullSpan:
    """Context manager that does nothing; shared singleton."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class Recorder:
    """No-op recorder: the zero-overhead default of every pipeline hook.

    Also the base class of :class:`MetricsRecorder`.  Every method is
    safe to call unconditionally; hot paths should instead branch on
    :attr:`enabled` once per phase and skip the calls entirely.
    """

    #: ``False`` on the no-op base; pipeline code gates all per-phase
    #: metric work on this single attribute.
    enabled = False

    def count(self, name: str, value: float = 1) -> None:
        """Add *value* to counter *name* (monotonic, merged by sum)."""

    def gauge(self, name: str, value: float) -> None:
        """Set gauge *name* (point-in-time level, merged by max)."""

    def span(self, name: str) -> Any:
        """A timing context manager; nested spans build ``a/b`` paths."""
        return NULL_SPAN

    def counter_value(self, name: str) -> float:
        """Current value of counter *name* (0 when absent / disabled)."""
        return 0

    def snapshot(self) -> MetricsSnapshot:
        """Capture everything recorded so far (empty when disabled)."""
        return MetricsSnapshot()

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Merge a snapshot's values into this recorder."""

    def add_shard(self, index: int, snapshot_dict: Dict[str, Any]) -> None:
        """Attach one worker's snapshot (dict form) to this recorder,
        merging its counters and gauges into the parent totals and
        keeping the per-shard spans addressable in the output."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} enabled={self.enabled}>"


#: The process-wide disabled recorder; use instead of ``None`` defaults.
NULL_RECORDER = Recorder()


class _Span:
    """Timing context manager of :class:`MetricsRecorder`."""

    __slots__ = ("_recorder", "_name", "_path", "_started")

    def __init__(self, recorder: "MetricsRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._path = ""
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._path = self._recorder._enter_span(self._name)
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        elapsed = time.perf_counter() - self._started
        self._recorder._exit_span(self._path, elapsed)


class MetricsRecorder(Recorder):
    """Collecting recorder: counters, gauges and nested spans.

    Its state is one :class:`MetricsSnapshot`, so recording and merging
    follow the snapshot's rules (:meth:`MetricsSnapshot.absorb`).
    Thread-safe for concurrent ``count``/``gauge`` calls (the
    work-stealing executor runs observers from worker threads); spans
    track nesting per recorder, so keep span usage on the driving thread
    -- which is where all pipeline phases run.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state = MetricsSnapshot()
        self._span_stack: List[str] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            counters = self._state.counters
            counters[name] = counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._state.gauges[name] = value

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def _enter_span(self, name: str) -> str:
        path = "/".join(self._span_stack + [name])
        self._span_stack.append(name)
        return path

    def _exit_span(self, path: str, elapsed: float) -> None:
        if self._span_stack:
            self._span_stack.pop()
        with self._lock:
            stats = self._state.spans.get(path)
            if stats is None:
                stats = self._state.spans[path] = SpanStats(path)
            stats.record(elapsed)

    # -- access / combination ----------------------------------------------

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._state.counters.get(name, 0)

    def snapshot(self) -> MetricsSnapshot:
        with self._lock:
            return MetricsSnapshot.merge([self._state])

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        with self._lock:
            self._state.absorb(snapshot)

    def add_shard(self, index: int, snapshot_dict: Dict[str, Any]) -> None:
        shard_snapshot = MetricsSnapshot.from_dict(snapshot_dict)
        shard_snapshot.shards = []  # workers never nest further
        spans = shard_snapshot.spans
        shard_snapshot.spans = {}  # totals merge; spans stay per-shard
        entry = dict(snapshot_dict)
        entry.pop("schema", None)
        entry["shard"] = index
        entry["spans"] = [spans[path].to_dict() for path in sorted(spans)]
        with self._lock:
            self._state.absorb(shard_snapshot)
            self._state.shards.append(entry)
            self._state.shards.sort(key=lambda shard: shard.get("shard", 0))
