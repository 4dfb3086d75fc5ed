"""Traces: recording, serialization, replay, and interleaving exploration.

* :class:`~repro.trace.trace.Trace` -- an ordered list of runtime events,
  optionally paired with the DPST of the execution that produced it;
* :mod:`~repro.trace.serialize` and :mod:`~repro.trace.columnar` -- the
  v2 JSONL and v3 columnar trace files: one crash-safe writer base, and
  one :class:`~repro.trace.serialize.TraceReader` base with a reader per
  format, which :func:`~repro.trace.serialize.open_trace` picks;
* :mod:`~repro.trace.replay` -- feed an event stream to any checker
  offline, including permuted variants (check a whole trace with
  :class:`repro.session.CheckSession`);
* :mod:`~repro.trace.explore` -- ground truth: exhaustively enumerate the
  legal schedules of a recorded execution (respecting series-parallel
  structure and lock mutual exclusion) and report which locations exhibit
  an atomicity violation in *some* schedule.  The paper's checker is
  validated against this oracle: it must find, from one trace, everything
  the explorer finds across all traces.

The paper's "trace generator that takes the number of tasks and memory
accesses as parameter" is :class:`repro.fuzz.generate.ProgramGenerator`:
it produces random task-parallel programs, and their traces, of a
controlled shape.
"""

from repro.trace.trace import Trace
from repro.trace.replay import replay_memory_events, replay_events
from repro.trace.explore import (
    InterleavingExplorer,
    analytic_violation_locations,
    explore_violation_locations,
)
from repro.trace.serialize import (
    JsonlTraceReader,
    TraceReader,
    TraceWriter,
    dump_trace,
    dump_trace_jsonl,
    load_trace,
    open_trace,
)
from repro.trace.columnar import (
    ColumnarTraceReader,
    ColumnarTraceWriter,
    dump_trace_columnar,
    is_columnar_trace,
)
from repro.trace.visualize import (
    render_step_table,
    render_timeline,
    render_violation_context,
)

__all__ = [
    "Trace",
    "replay_memory_events",
    "replay_events",
    "InterleavingExplorer",
    "analytic_violation_locations",
    "explore_violation_locations",
    "JsonlTraceReader",
    "TraceReader",
    "TraceWriter",
    "ColumnarTraceReader",
    "ColumnarTraceWriter",
    "dump_trace",
    "dump_trace_jsonl",
    "dump_trace_columnar",
    "is_columnar_trace",
    "load_trace",
    "open_trace",
    "render_step_table",
    "render_timeline",
    "render_violation_context",
]
