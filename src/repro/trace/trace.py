"""The :class:`Trace` container.

A trace is the ordered list of events observed during one execution,
optionally carrying the DPST that execution built (required for replay
through the DPST-based checkers and for interleaving exploration).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set

from repro.dpst.base import DPSTBase
from repro.errors import TraceError
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    TaskSpawnEvent,
)

Location = Hashable


class Trace:
    """An ordered sequence of runtime events.

    Parameters
    ----------
    events:
        The events, in observation order.
    dpst:
        The DPST of the producing execution, when available.
    """

    def __init__(
        self,
        events: Sequence[object],
        dpst: Optional[DPSTBase] = None,
    ) -> None:
        self.events: List[object] = list(events)
        self.dpst = dpst

    # -- views --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[object]:
        return iter(self.events)

    def memory_events(self) -> List[MemoryEvent]:
        """Just the memory accesses, in trace order."""
        return [e for e in self.events if isinstance(e, MemoryEvent)]

    def lock_events(self) -> List[object]:
        """Acquire/release events, in trace order."""
        return [e for e in self.events if isinstance(e, (AcquireEvent, ReleaseEvent))]

    def task_ids(self) -> List[int]:
        """Distinct task ids appearing in the trace, sorted."""
        tasks: Set[int] = set()
        for event in self.events:
            task = getattr(event, "task", None)
            if task is not None:
                tasks.add(task)
            if isinstance(event, TaskSpawnEvent):
                tasks.add(event.parent)
                tasks.add(event.child)
        return sorted(tasks)

    def locations(self) -> List[Location]:
        """Distinct locations accessed, in first-access order."""
        seen: Dict[Location, None] = {}
        for event in self.memory_events():
            seen.setdefault(event.location)
        return list(seen)

    def step_ids(self) -> List[int]:
        """Distinct step nodes that performed accesses, sorted."""
        return sorted({e.step for e in self.memory_events()})

    def events_by_step(self) -> Dict[int, List[MemoryEvent]]:
        """Memory events grouped by step node, each list in trace order."""
        grouped: Dict[int, List[MemoryEvent]] = defaultdict(list)
        for event in self.memory_events():
            grouped[event.step].append(event)
        return dict(grouped)

    def events_for_location(self, location: Location) -> List[MemoryEvent]:
        """Memory events touching *location*, in trace order."""
        return [e for e in self.memory_events() if e.location == location]

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Consistency checks; raises :class:`TraceError` on failure.

        * events carry monotonically increasing ``seq`` numbers;
        * every step referenced by a memory event is a step node of the
          attached DPST (when one is attached);
        * per-task memory events never share a step with another task.
        """
        last_seq = -1
        for event in self.events:
            seq = getattr(event, "seq", None)
            if seq is None:
                raise TraceError(f"event without seq: {event!r}")
            if seq <= last_seq:
                raise TraceError(
                    f"non-monotonic seq {seq} after {last_seq}: {event!r}"
                )
            last_seq = seq
        step_owner: Dict[int, int] = {}
        for event in self.memory_events():
            owner = step_owner.setdefault(event.step, event.task)
            if owner != event.task:
                raise TraceError(
                    f"step {event.step} used by tasks {owner} and {event.task}"
                )
        if self.dpst is not None:
            for event in self.memory_events():
                if event.step < 0 or event.step >= len(self.dpst):
                    raise TraceError(f"unknown step node {event.step}")
                if not self.dpst.is_step(event.step):
                    raise TraceError(f"node {event.step} is not a step node")

    # -- export ----------------------------------------------------------------

    def to_dicts(self) -> List[Dict[str, object]]:
        """Serialize events to plain dictionaries (for logging/goldens)."""
        rows: List[Dict[str, object]] = []
        for event in self.events:
            row: Dict[str, object] = {"type": type(event).__name__}
            for name in event.__dataclass_fields__:  # type: ignore[attr-defined]
                row[name] = getattr(event, name)
            rows.append(row)
        return rows

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Trace events={len(self.events)} memory={len(self.memory_events())}>"
