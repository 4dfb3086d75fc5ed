"""repro -- Atomicity violation checking for task parallel programs.

A from-scratch Python reproduction of *"Atomicity Violation Checker for
Task Parallel Programs"* (Adarsh Yoga and Santosh Nagarakatte, CGO 2016).

Quickstart
----------
::

    from repro import CheckSession, TaskProgram

    def child(ctx):
        value = ctx.read("X")          # two accesses to X in one step:
        ctx.write("X", value + 1)      # expected to be atomic

    def main(ctx):
        ctx.write("X", 0)
        ctx.spawn(child)
        ctx.spawn(child)
        ctx.sync()

    session = CheckSession(TaskProgram(main))
    report = session.check()           # default: the optimized checker
    print(report.describe())           # -> unserializable RWR/RWW triples

:class:`~repro.session.CheckSession` is the front door for every source
(live programs, recorded traces, trace files) and every checking mode
(in-process or location-sharded across processes); pass
``recorder=MetricsRecorder()`` to collect :mod:`repro.obs` metrics and
phase timings.

The package layers:

* :mod:`repro.dpst` -- the dynamic program structure tree (array and
  linked layouts) with cached LCA/parallelism queries;
* :mod:`repro.runtime` -- an instrumented task-parallel runtime (spawn /
  sync / finish, shared memory, locks) with serial, randomized and
  work-stealing executors;
* :mod:`repro.checker` -- the basic (Fig. 3) and optimized (Figs. 6-9)
  atomicity checkers plus the Velodrome baseline;
* :mod:`repro.trace` -- trace recording, a parameterized random trace /
  program generator, replay, and an exhaustive interleaving explorer used
  as ground truth;
* :mod:`repro.suite` -- the 36-program violation test suite;
* :mod:`repro.workloads` -- task-parallel kernels of the paper's 13
  benchmarks;
* :mod:`repro.bench` -- harnesses regenerating Table 1 and Figures 13/14;
* :mod:`repro.obs` -- the observability layer: counters, gauges and
  phase spans behind one :class:`~repro.obs.Recorder`;
* :mod:`repro.static` -- static analysis: access-set over-approximation,
  trace-coverage validation, and the ``repro lint`` pass (static MHP +
  locksets + Figure 4 candidate triples).
"""

from repro.report import (
    READ,
    WRITE,
    AccessInfo,
    AtomicityViolation,
    TraceCycleViolation,
    ViolationReport,
)
from repro.errors import (
    CheckerError,
    DPSTError,
    ReproError,
    RuntimeUsageError,
    TraceError,
    WorkloadError,
)
from repro.dpst import (
    ArrayDPST,
    LCAEngine,
    LinkedDPST,
    NodeKind,
    make_dpst,
)
from repro.checker import (
    AtomicAnnotations,
    BasicAtomicityChecker,
    ExploringVelodrome,
    OptAtomicityChecker,
    RaceDetector,
    VelodromeChecker,
    make_checker,
)
from repro.runtime import (
    RandomOrderExecutor,
    RunResult,
    SerialExecutor,
    StatsObserver,
    TaskContext,
    TaskProgram,
    TraceRecorder,
    WorkStealingExecutor,
    parallel_for,
    parallel_invoke,
    parallel_pipeline,
    parallel_reduce,
    run_program,
)
from repro.session import CheckSession
from repro.dpst import EngineStats
from repro.obs import (
    METRIC_NAMES,
    NULL_RECORDER,
    MetricsRecorder,
    MetricsSnapshot,
    Recorder,
)
from repro.static import (
    LintReport,
    MHPIndex,
    StaticAccessSet,
    StaticCandidate,
    StaticSkeleton,
    analyze_function,
    analyze_spec,
    check_trace_coverage,
    lint_function,
    lint_program,
    lint_spec,
    skeleton_from_function,
    skeleton_from_spec,
)

__version__ = "1.2.0"

__all__ = [
    "READ",
    "WRITE",
    "AccessInfo",
    "AtomicityViolation",
    "TraceCycleViolation",
    "ViolationReport",
    "CheckerError",
    "DPSTError",
    "ReproError",
    "RuntimeUsageError",
    "TraceError",
    "WorkloadError",
    "ArrayDPST",
    "LCAEngine",
    "LinkedDPST",
    "NodeKind",
    "make_dpst",
    "AtomicAnnotations",
    "BasicAtomicityChecker",
    "ExploringVelodrome",
    "OptAtomicityChecker",
    "RaceDetector",
    "VelodromeChecker",
    "make_checker",
    "RandomOrderExecutor",
    "RunResult",
    "SerialExecutor",
    "StatsObserver",
    "TaskContext",
    "TaskProgram",
    "TraceRecorder",
    "WorkStealingExecutor",
    "parallel_for",
    "parallel_invoke",
    "parallel_pipeline",
    "parallel_reduce",
    "run_program",
    "CheckSession",
    "EngineStats",
    "METRIC_NAMES",
    "MetricsRecorder",
    "MetricsSnapshot",
    "NULL_RECORDER",
    "Recorder",
    "LintReport",
    "MHPIndex",
    "StaticAccessSet",
    "StaticCandidate",
    "StaticSkeleton",
    "analyze_function",
    "analyze_spec",
    "check_trace_coverage",
    "lint_function",
    "lint_program",
    "lint_spec",
    "skeleton_from_function",
    "skeleton_from_spec",
    "__version__",
]
