"""Metric value types and the mergeable :class:`MetricsSnapshot`.

The observability layer (:mod:`repro.obs`) separates *collection* (the
:class:`~repro.obs.recorder.Recorder` protocol, called from the checking
pipeline) from *values* (this module): counters, gauges and aggregated
phase spans, all of which can be snapshotted into one plain
JSON-serializable object and merged across worker processes -- the
metrics analogue of :meth:`repro.report.ViolationReport.merge`.

Merge semantics mirror what the sharded pipeline needs:

* **counters** sum -- a per-shard event count totals to the run's count;
* **gauges** keep the maximum -- per-shard footprints (entries, bytes)
  become the peak, which is what capacity planning wants;
* **spans** aggregate per path -- total seconds, call count, min/max.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

#: Version stamp of the on-disk JSON layout (``--metrics out.json``).
METRICS_SCHEMA = "repro-metrics/1"


@dataclass
class SpanStats:
    """Aggregated timings of one span *path* (e.g. ``"check/replay"``)."""

    path: str
    count: int = 0
    total_s: float = 0.0
    min_s: Optional[float] = None
    max_s: Optional[float] = None

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if self.min_s is None or seconds < self.min_s:
            self.min_s = seconds
        if self.max_s is None or seconds > self.max_s:
            self.max_s = seconds

    def merge(self, other: "SpanStats") -> None:
        self.count += other.count
        self.total_s += other.total_s
        if other.min_s is not None and (self.min_s is None or other.min_s < self.min_s):
            self.min_s = other.min_s
        if other.max_s is not None and (self.max_s is None or other.max_s > self.max_s):
            self.max_s = other.max_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpanStats":
        """The span *data* describes; :class:`ValueError` unless it is a
        dict with a string ``path``, an int ``count``, a number
        ``total_s`` and ``min_s``/``max_s`` each a number or null."""
        if not isinstance(data, dict) or not isinstance(data.get("path"), str):
            raise ValueError(f"a span is a dict with a string path, not {data!r:.60}")
        count = data.get("count", 0)
        if count.__class__ is not int:
            raise ValueError(f"span {data['path']!r} has count {count!r:.60}")
        return cls(
            path=data["path"],
            count=count,
            total_s=_number(data.get("total_s", 0.0), "total_s"),
            min_s=_number(data.get("min_s"), "min_s", optional=True),
            max_s=_number(data.get("max_s"), "max_s", optional=True),
        )


@dataclass
class MetricsSnapshot:
    """One immutable-by-convention capture of a recorder's state.

    Plain data end to end: picklable across worker processes, JSON round-
    trippable, and mergeable.  ``shards`` holds the per-shard snapshots of
    a sharded run (as dicts, shard index under ``"shard"``), so the
    ``--metrics`` output keeps per-shard spans next to the merged totals.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    spans: Dict[str, SpanStats] = field(default_factory=dict)
    shards: List[Dict[str, Any]] = field(default_factory=list)

    # -- combination -------------------------------------------------------

    def absorb(self, other: "MetricsSnapshot") -> None:
        """Merge *other* into this snapshot (counters sum, gauges max)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            current = self.gauges.get(name)
            self.gauges[name] = value if current is None else max(current, value)
        for path, span in other.spans.items():
            mine_span = self.spans.get(path)
            if mine_span is None:
                self.spans[path] = SpanStats(
                    path, span.count, span.total_s, span.min_s, span.max_s
                )
            else:
                mine_span.merge(span)
        self.shards.extend(other.shards)

    @classmethod
    def merge(cls, snapshots: Iterable["MetricsSnapshot"]) -> "MetricsSnapshot":
        """Merge many snapshots into a fresh one (the spans/counters
        analogue of :meth:`repro.report.ViolationReport.merge`)."""
        merged = cls()
        for snapshot in snapshots:
            merged.absorb(snapshot)
        return merged

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": METRICS_SCHEMA,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "spans": [self.spans[path].to_dict() for path in sorted(self.spans)],
        }
        if self.shards:
            data["shards"] = list(self.shards)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSnapshot":
        """The snapshot *data* (a :meth:`to_dict` result) describes.

        Raises :class:`ValueError` for anything :meth:`absorb` could not
        merge: *data*, ``counters`` or ``gauges`` not a dict, a counter or
        gauge that is not a number, a malformed span, or ``shards`` not a
        list of dicts.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a metrics snapshot is a dict, not {data!r:.60}")
        snapshot = cls()
        for name in ("counters", "gauges"):
            values = data.get(name, {})
            if not isinstance(values, dict):
                raise ValueError(f"snapshot {name} is {values!r:.60}, not a dict")
            for metric, value in values.items():
                _number(value, metric)
            setattr(snapshot, name, dict(values))
        spans = data.get("spans", [])
        if not isinstance(spans, list):
            raise ValueError(f"snapshot spans is {spans!r:.60}, not a list")
        for span in spans:
            stats = SpanStats.from_dict(span)
            snapshot.spans[stats.path] = stats
        shards = data.get("shards", [])
        if not isinstance(shards, list) or not all(
            isinstance(shard, dict) for shard in shards
        ):
            raise ValueError(f"snapshot shards is {shards!r:.60}, not a list of dicts")
        snapshot.shards = list(shards)
        return snapshot

    def dump(self, path: str) -> None:
        """Write the snapshot as pretty-printed JSON to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=False)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "MetricsSnapshot":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<MetricsSnapshot counters={len(self.counters)} "
            f"spans={len(self.spans)} shards={len(self.shards)}>"
        )


def _number(value: Any, name: str, optional: bool = False) -> Any:
    """*value* if it is an int or float (``None`` too when *optional*);
    else :class:`ValueError`.  A bool is not a number here."""
    if value is None and optional:
        return value
    if value.__class__ not in (int, float):
        raise ValueError(f"metric {name!r} is {value!r:.60}, not a number")
    return value


def is_metrics_dict(data: Any) -> bool:
    """``True`` iff *data* looks like a serialized snapshot."""
    return isinstance(data, dict) and data.get("schema") == METRICS_SCHEMA
