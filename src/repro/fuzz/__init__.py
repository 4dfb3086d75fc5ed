"""repro.fuzz -- the differential fuzzing subsystem.

The paper's central claim is *schedule insensitivity*: the checker
reports the same unserializable patterns (Fig. 4) for every schedule of
a given input.  The reproduction, meanwhile, has grown several
independent ways to compute a verdict -- basic vs optimized checkers,
LCA vs label parallelism engines, in-process vs location-sharded
(``jobs>1``) checking, streaming vs offline, and record -> replay
round-trips -- all of which must agree.  This package is the standing
correctness harness that cross-checks them on randomized inputs, in the
tradition of RegionTrack's and the vector-clock atomicity line's
randomized-trace validation:

* :mod:`repro.fuzz.generate` -- a seeded random task-parallel program
  generator emitting valid spawn/sync/finish structures with nested
  finishes, ``parallel_for``/``reduce`` templates, shared-location
  reads/writes and balanced lock acquire/release pairs.  Deterministic
  from a seed; parameterized by depth, task count, location count, and
  lock density (:class:`~repro.fuzz.generate.FuzzConfig`).
* :mod:`repro.fuzz.oracle` -- the differential oracle: one generated
  program, every configuration of the matrix, any disagreement in
  normalized violation sets reported with full provenance
  (:func:`~repro.fuzz.oracle.check_spec`).
* :mod:`repro.fuzz.shrink` -- a delta-debugging shrinker that reduces a
  disagreeing program to a minimal reproducer (drop tasks, drop
  accesses, collapse finish scopes, unwrap critical sections) and
  renders it as a ready-to-paste pytest case
  (:func:`~repro.fuzz.shrink.shrink_spec`,
  :func:`~repro.fuzz.shrink.reproducer_source`).
* :mod:`repro.fuzz.harness` -- the campaign driver behind the
  ``repro fuzz`` CLI subcommand and the ``fuzz-smoke`` CI job
  (:func:`~repro.fuzz.harness.run_campaign`).

Quick use::

    from repro.fuzz import FuzzConfig, run_campaign

    summary = run_campaign(FuzzConfig(), runs=200, base_seed=1)
    assert summary.ok, summary.describe()
"""

from repro.fuzz.generate import (
    FuzzConfig,
    ProgramGenerator,
    program_from_spec,
    spec_access_count,
    spec_locations,
)
from repro.fuzz.harness import FuzzSummary, run_campaign
from repro.fuzz.oracle import Disagreement, OracleOutcome, check_seed, check_spec
from repro.fuzz.shrink import ShrinkResult, reproducer_source, shrink_spec

__all__ = [
    "Disagreement",
    "FuzzConfig",
    "FuzzSummary",
    "OracleOutcome",
    "ProgramGenerator",
    "ShrinkResult",
    "check_seed",
    "check_spec",
    "program_from_spec",
    "reproducer_source",
    "run_campaign",
    "shrink_spec",
    "spec_access_count",
    "spec_locations",
]
