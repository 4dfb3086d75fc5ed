"""Guard tests for the differential oracle and the shrinker.

The oracle is only worth its runtime if it actually catches broken
checkers, so the central test here injects one -- a checker that reports
nothing -- and requires the oracle to flag it.  The shrinker must then
reduce that seeded disagreement to a tiny (<= 8 events) 1-minimal spec
whose emitted pytest reproducer is genuinely runnable.
"""

import pytest

from repro.checker import OptAtomicityChecker
from repro.fuzz import (
    FuzzConfig,
    ProgramGenerator,
    check_seed,
    check_spec,
    reproducer_source,
    shrink_spec,
)
from repro.fuzz.harness import campaign_seeds, run_campaign
from repro.fuzz.shrink import ShrinkResult
from repro.obs import MetricsRecorder
from repro.report import ViolationReport
from repro.runtime.observer import RuntimeObserver

#: A seed whose generated program provably has atomicity violations
#: (asserted below), so a violation-blind checker must disagree.
VIOLATING_SEED = 1


class BlindChecker(RuntimeObserver):
    """Deliberately broken: sees every event, reports nothing."""

    def __init__(self):
        self.report = ViolationReport()

    def on_memory(self, event):
        pass


def _broken_outcome(spec):
    return check_spec(
        spec,
        seed=VIOLATING_SEED,
        jobs=1,
        extra_checkers={"blind": BlindChecker},
        schedules=False,
    )


def test_clean_seeds_agree_across_the_matrix():
    for seed in (0, 1, 2, 3):
        outcome = check_seed(seed, jobs=2)
        assert outcome.ok, outcome.describe()
        assert "reference" in outcome.verdicts
        assert "labels-engine" in outcome.verdicts
        assert "sharded-jobs2" in outcome.verdicts
        assert "replay" in outcome.verdicts
        assert "columnar" in outcome.verdicts
        assert "cached" in outcome.verdicts
        assert "basic" in outcome.verdicts
        assert "paper-mode" in outcome.verdicts
        assert "schedule:random" in outcome.verdicts
        # Cache decisions are never silent: the cached leg must hit.
        assert "hit=True" in outcome.notes["cached"]


def test_oracle_catches_a_blind_checker():
    spec = ProgramGenerator(FuzzConfig()).generate_spec(VIOLATING_SEED)
    outcome = _broken_outcome(spec)
    assert not outcome.ok
    broken = [d for d in outcome.disagreements if d.right == "blind"]
    assert broken, outcome.describe()
    assert broken[0].level == "locations"
    # Provenance: the disagreement carries the seed and the whole spec.
    assert broken[0].seed == VIOLATING_SEED
    assert broken[0].spec == spec


def test_oracle_catches_a_lock_blind_checker():
    """A subtler bug -- ignoring locksets -- must also be caught.

    Dropping lock protection can only add violations, so the blind spot
    shows up as extra implicated locations on some generated program.
    """

    import dataclasses

    class LockBlind(OptAtomicityChecker):
        def on_memory(self, event):
            super().on_memory(dataclasses.replace(event, lockset=()))

    caught = False
    for seed in campaign_seeds(base_seed=1, runs=40):
        spec = ProgramGenerator(FuzzConfig(lock_density=0.9)).generate_spec(seed)
        outcome = check_spec(
            spec,
            seed=seed,
            jobs=1,
            extra_checkers={"lock-blind": lambda: LockBlind(mode="thorough")},
            schedules=False,
        )
        if any(d.right == "lock-blind" for d in outcome.disagreements):
            caught = True
            break
    assert caught, "40 lock-heavy programs never exposed a lockset-blind checker"


def test_shrinker_reduces_seeded_disagreement_to_at_most_8_events():
    spec = ProgramGenerator(FuzzConfig()).generate_spec(VIOLATING_SEED)
    assert not _broken_outcome(spec).ok

    recorder = MetricsRecorder()
    result = shrink_spec(
        spec, lambda s: not _broken_outcome(s).ok, recorder=recorder
    )
    assert isinstance(result, ShrinkResult)
    assert result.events <= 8, result.describe()
    assert result.tasks <= 2, result.describe()
    assert result.steps > 0
    # The shrunk spec still fails, and it is 1-minimal by construction.
    assert not _broken_outcome(result.spec).ok
    assert recorder.snapshot().counters["fuzz.shrink_steps"] == result.steps

    # The emitted reproducer is a runnable, self-contained pytest module.
    source = reproducer_source(result.spec, seed=VIOLATING_SEED, jobs=1)
    namespace = {}
    exec(compile(source, "<reproducer>", "exec"), namespace)
    test_fn = namespace[f"test_fuzz_reproducer_seed_{VIOLATING_SEED}"]
    assert namespace["SPEC"] == result.spec
    # The stock matrix agrees on the shrunk spec (only the injected
    # blind checker disagreed), so the pasted test passes as-is.
    test_fn()


def test_shrink_rejects_passing_spec():
    spec = ("task", (("access", ("g", 0), "read"),))
    with pytest.raises(ValueError):
        shrink_spec(spec, lambda s: False)


def test_campaign_surfaces_and_shrinks_injected_failures(monkeypatch):
    """End-to-end: a broken matrix turns into shrunk reproducers."""
    import repro.fuzz.harness as harness

    real_check_spec = harness.check_spec

    def sabotaged(spec, seed=None, jobs=4, recorder=None, **kwargs):
        return real_check_spec(
            spec,
            seed=seed,
            jobs=1,
            recorder=recorder,
            extra_checkers={"blind": BlindChecker},
            schedules=False,
        )

    monkeypatch.setattr(harness, "check_spec", sabotaged)
    summary = run_campaign(runs=6, base_seed=1, jobs=1, shrink=True)
    assert not summary.ok
    assert summary.disagreements > 0
    assert summary.reproducers
    for _seed, (result, source) in summary.reproducers.items():
        assert result.events <= 8
        assert "def test_fuzz_reproducer" in source


def test_campaign_metrics_and_determinism():
    recorder = MetricsRecorder()
    summary = run_campaign(runs=5, base_seed=7, jobs=1, recorder=recorder)
    assert summary.ok, summary.describe()
    counters = recorder.snapshot().counters
    assert counters["fuzz.runs"] == 5
    assert counters["fuzz.comparisons"] > 0
    assert counters["fuzz.events_checked"] == summary.events
    assert "fuzz.disagreements" not in counters
    # Campaign seed derivation is pure in the base seed.
    assert campaign_seeds(7, 5) == campaign_seeds(7, 5)
    again = run_campaign(runs=5, base_seed=7, jobs=1)
    assert again.events == summary.events
