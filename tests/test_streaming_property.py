"""Property-based tests for streaming checks (hypothesis + pinned seeds).

Three properties, over generator-driven programs (the same shapes the
runtime builds -- spawns, syncs, nested finishes, locks).  A streaming
check has no window: the optimized checker frees a task's local cells
at its next step and at its end, so the whole trace is the one window.

* **Window monotonicity**: the streaming check never loses a verdict of
  the plain check.  The implementation earns something stronger -- the
  normalized reports are *identical* -- and the stronger form is what
  gets pinned, with the containment stated as an explicit corollary so a
  future (sound but lossy-metadata) streaming strategy fails the right
  assertion first.

* **Compaction invisibility**: the inline freeing really runs (cells are
  freed, and the streaming wrapper frees and checks exactly what the
  plain check does), and it hides no location that the basic checker,
  which keeps every access, reports.

* **Any program**: a hypothesis sweep of ``check(streaming=True)`` ==
  ``check()``; the shrinker hands back a minimal seed.

Seeds are pinned: failures reproduce byte-for-byte.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import CheckSession
from repro.fuzz import FuzzConfig, ProgramGenerator, program_from_spec
from repro.obs import MetricsRecorder
from repro.report import normalize_report, normalized_locations
from repro.runtime.executor import SerialExecutor
from repro.runtime.program import run_program

PINNED_SEEDS = [0, 1, 2, 7, 11, 42, 1234]


def _fuzzed_trace(seed):
    config = FuzzConfig(tasks=8, depth=3, locations=4, seed=seed)
    spec = ProgramGenerator(config).generate_spec(seed)
    result = run_program(
        program_from_spec(spec), executor=SerialExecutor(), record_trace=True
    )
    return result.trace


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_window_monotone(seed):
    """Streaming never adds false negatives vs the plain check."""
    session = CheckSession(_fuzzed_trace(seed))
    offline = session.check(mode="thorough")
    streamed = session.check(streaming=True, mode="thorough")
    # The corollary a lossy streaming strategy would break first:
    assert set(normalized_locations(offline)) <= set(
        normalized_locations(streamed)
    ), seed
    # The stronger invariant this checker actually provides:
    assert normalize_report(streamed) == normalize_report(offline), seed


@pytest.mark.parametrize("seed", PINNED_SEEDS)
def test_compaction_invisible(seed):
    """Free-as-you-go ≡ keep-everything, at the location level."""
    trace = _fuzzed_trace(seed)

    def counters(**check_kwargs):
        recorder = MetricsRecorder()
        CheckSession(trace, recorder=recorder).check(
            mode="thorough", **check_kwargs
        )
        return recorder.snapshot().counters

    plain = counters()
    streamed = counters(streaming=True)
    assert streamed["checker.optimized.cells_freed"] > 0, seed
    for name in ("checker.optimized.cells_freed", "checker.accesses_checked"):
        assert streamed[name] == plain[name], (seed, name)
    session = CheckSession(trace)
    assert normalized_locations(
        session.check(streaming=True, mode="thorough")
    ) == normalized_locations(session.check("basic")), seed


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_any_window_matches_offline(seed):
    """hypothesis sweep: ``check(streaming=True)`` == ``check()`` on any
    generated program -- the shrinker hands back a minimal seed."""
    session = CheckSession(_fuzzed_trace(seed))
    offline = normalize_report(session.check(mode="thorough"))
    streamed = normalize_report(session.check(streaming=True, mode="thorough"))
    assert streamed == offline, seed
