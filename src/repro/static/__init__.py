"""Static access-set over-approximation (the paper's future work).

The optimized checker is complete *"provided the execution trace observed
by the dynamic analysis contains all shared memory operations that can
possibly occur in other interleavings for a given input"* (Section 3.1),
and the conclusion proposes: *"Static analysis can likely be used to
create an over-approximation of such a set of accesses, which we plan to
explore in the future."*

This package explores it:

* :mod:`repro.static.accesses` -- the over-approximated set of shared
  accesses a program can perform, as location patterns (constant
  locations are exact; computed locations degrade to prefix or unknown
  patterns).  :func:`analyze_spec` (**exact**, from a generator spec
  tree) and :func:`analyze_function` (**best-effort**, from the Python
  AST of task bodies) project the static skeleton below to it;
* :mod:`repro.static.coverage` -- validates the completeness
  precondition: every statically-possible access must appear (in some
  order) in the observed trace.  A clean coverage report means the
  checker's "all schedules for this input" guarantee stands; missing
  accesses pinpoint input-dependent branches the observed execution did
  not take;
* :mod:`repro.static.structure` / :mod:`repro.static.mhp` /
  :mod:`repro.static.locksets` -- the static series-parallel skeleton,
  may-happen-in-parallel via the DPST LCA rule applied to it, and
  versioned static locksets (Section 3.3 replayed over lexical scopes);
* :mod:`repro.static.lint` / :mod:`repro.static.diagnostics` -- the
  ``repro lint`` pass: candidate unserializable triples per Figure 4
  found without running the program, and structural ``SAVnnn``
  diagnostics;
* :mod:`repro.static.callgraph` / :mod:`repro.static.summaries` -- the
  interprocedural layer: the call graph reachable from a task body
  (name/attribute resolution through closures and module globals, SCC
  condensation) and bottom-up per-function effect summaries with a
  fixpoint inside SCCs, so helpers and bounded recursion analyze
  exactly;
* :mod:`repro.static.sarif` / :mod:`repro.static.baseline` -- the CI
  frontend: SARIF 2.1.0 export and known-findings baselines for
  fail-only-on-new gating.
"""

from repro.static.accesses import AccessPattern, StaticAccessSet
from repro.static.baseline import (
    BASELINE_SCHEMA,
    BaselineError,
    compare_to_baseline,
    update_baseline,
)
from repro.static.callgraph import (
    CallGraph,
    CallGraphStats,
    FunctionInfo,
    build_callgraph,
)
from repro.static.coverage import CoverageReport, check_trace_coverage
from repro.static.diagnostics import RULES, Diagnostic
from repro.static.lint import (
    LintReport,
    StaticCandidate,
    lint_function,
    lint_program,
    lint_skeleton,
    lint_spec,
)
from repro.static.mhp import MHPIndex
from repro.static.sarif import report_to_sarif, reports_to_sarif
from repro.static.structure import (
    StaticSkeleton,
    analyze_function,
    analyze_spec,
    skeleton_from_function,
    skeleton_from_spec,
)
from repro.static.summaries import FunctionSummary, compute_summaries

__all__ = [
    "AccessPattern",
    "StaticAccessSet",
    "analyze_function",
    "analyze_spec",
    "BASELINE_SCHEMA",
    "BaselineError",
    "compare_to_baseline",
    "update_baseline",
    "CallGraph",
    "CallGraphStats",
    "FunctionInfo",
    "build_callgraph",
    "FunctionSummary",
    "compute_summaries",
    "CoverageReport",
    "check_trace_coverage",
    "Diagnostic",
    "RULES",
    "LintReport",
    "StaticCandidate",
    "lint_function",
    "lint_program",
    "lint_skeleton",
    "lint_spec",
    "MHPIndex",
    "report_to_sarif",
    "reports_to_sarif",
    "StaticSkeleton",
    "skeleton_from_function",
    "skeleton_from_spec",
]
