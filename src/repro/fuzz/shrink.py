"""Delta-debugging shrinker: reduce a disagreeing program to a minimal case.

Given a spec tree and a predicate ("does this spec still trigger the
failure?"), :func:`shrink_spec` greedily applies structure-preserving
reductions until none applies:

* **drop-spawn** -- delete a whole child task subtree;
* **inline-spawn** -- replace a spawn with its body run sequentially
  (removes parallelism while keeping the accesses);
* **collapse-finish** -- splice a finish scope's items into its parent;
* **unwrap-locked** -- splice a critical section's accesses out of the
  lock;
* **drop-sync** -- delete a sync;
* **drop-access** -- delete a single access.

Every candidate that still satisfies the predicate is accepted and the
scan restarts, so the result is a 1-minimal reproducer: removing any
single structural element makes the failure disappear.  The reductions
only rearrange/remove well-formed nodes, so every intermediate spec is a
valid, runnable, lintable program.

:func:`reproducer_source` renders the shrunk spec as a self-contained,
ready-to-paste pytest case that re-runs the differential oracle -- the
artifact the ``fuzz-smoke`` CI job uploads when a run disagrees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.fuzz.generate import Spec, spec_access_count, spec_task_count

Predicate = Callable[[Spec], bool]


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    spec: Spec
    #: Accepted reductions (each made the spec strictly smaller).
    steps: int
    #: Candidate specs tried (predicate evaluations beyond the initial one).
    attempts: int
    #: ``access`` nodes remaining -- the memory events of one run.
    events: int
    #: Spawn nodes remaining.
    tasks: int
    #: Reduction kinds applied, in order (for diagnostics).
    trail: List[str] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"shrunk to {self.events} event(s) / {self.tasks} task(s) in "
            f"{self.steps} step(s) ({self.attempts} candidate(s) tried)"
        )


def shrink_spec(
    spec: Spec,
    predicate: Predicate,
    max_attempts: int = 5000,
    recorder: Any = None,
) -> ShrinkResult:
    """Greedily minimize *spec* while *predicate* keeps holding.

    The caller must ensure ``predicate(spec)`` is true on entry (the
    function asserts it -- shrinking a non-failure is a harness bug).
    *max_attempts* bounds total predicate evaluations; the best spec so
    far is returned when the budget runs out.  An enabled *recorder*
    accumulates the ``fuzz.shrink_steps`` metric.
    """
    if not predicate(spec):
        raise ValueError("shrink_spec needs a spec that satisfies the predicate")
    steps = 0
    attempts = 0
    trail: List[str] = []
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for kind, candidate in _reductions(spec):
            attempts += 1
            if attempts > max_attempts:
                break
            if predicate(candidate):
                spec = candidate
                steps += 1
                trail.append(kind)
                progress = True
                break  # restart the scan from the smaller spec
    if recorder is not None and recorder.enabled:
        recorder.count("fuzz.shrink_steps", steps)
    return ShrinkResult(
        spec=spec,
        steps=steps,
        attempts=attempts,
        events=spec_access_count(spec),
        tasks=spec_task_count(spec),
        trail=trail,
    )


# ---------------------------------------------------------------------------
# Reduction enumeration
# ---------------------------------------------------------------------------


def _reductions(spec: Spec) -> Iterator[Tuple[str, Spec]]:
    """Yield ``(kind, smaller_spec)`` candidates, coarsest-first.

    Coarse reductions (dropping whole tasks) come before fine ones
    (single accesses) so big irrelevant chunks disappear in few steps.
    """
    root_items = spec[1]
    for kind in (
        "drop-spawn",
        "collapse-finish",
        "unwrap-locked",
        "drop-sync",
        "inline-spawn",
        "drop-access",
    ):
        for new_items in _reduce_items(root_items, kind):
            yield kind, ("task", new_items)


def _reduce_items(
    items: Sequence[Spec], kind: str
) -> Iterator[Tuple[Spec, ...]]:
    """All single applications of *kind* anywhere under *items*."""
    for index, item in enumerate(items):
        tag = item[0]
        # Apply at this node.
        if kind == "drop-spawn" and tag == "spawn":
            yield _splice(items, index, ())
        elif kind == "inline-spawn" and tag == "spawn":
            yield _splice(items, index, item[1])
        elif kind == "collapse-finish" and tag == "finish":
            yield _splice(items, index, item[1])
        elif kind == "unwrap-locked" and tag == "locked":
            yield _splice(items, index, item[2])
        elif kind == "drop-sync" and tag == "sync":
            yield _splice(items, index, ())
        elif kind == "drop-access" and tag == "access":
            yield _splice(items, index, ())
        # Recurse into composite children.
        if tag in ("spawn", "finish"):
            for inner in _reduce_items(item[1], kind):
                yield _splice(items, index, ((tag, inner),))
        elif tag == "locked":
            for inner in _reduce_items(item[2], kind):
                yield _splice(items, index, (("locked", item[1], inner),))


def _splice(
    items: Sequence[Spec], index: int, replacement: Sequence[Spec]
) -> Tuple[Spec, ...]:
    return tuple(items[:index]) + tuple(replacement) + tuple(items[index + 1 :])


# ---------------------------------------------------------------------------
# Reproducer rendering
# ---------------------------------------------------------------------------

_TEMPLATE = '''\
"""Shrunk differential-fuzzing reproducer (seed {seed}).

Generated by ``repro fuzz --shrink``; paste into the test suite as-is.
The spec below is 1-minimal: removing any structural element makes the
oracle disagreement disappear.
"""

from repro.fuzz.oracle import check_spec

SPEC = {spec}


def {name}():
    outcome = check_spec(SPEC, seed={seed}, jobs={jobs})
    assert outcome.ok, outcome.describe()
'''


def reproducer_source(
    spec: Spec,
    seed: Optional[int] = None,
    jobs: int = 4,
    name: Optional[str] = None,
) -> str:
    """A self-contained pytest case re-running the oracle on *spec*.

    The spec's ``repr`` is valid Python (plain nested tuples), so the
    emitted module imports nothing but the oracle.
    """
    test_name = name or (
        f"test_fuzz_reproducer_seed_{seed}" if seed is not None else "test_fuzz_reproducer"
    )
    return _TEMPLATE.format(
        seed=seed, spec=_format_spec(spec), jobs=jobs, name=test_name
    )


def _format_spec(spec: Spec, indent: int = 0) -> str:
    """Pretty multi-line repr: one structural node per line."""
    pad = "    " * indent
    tag = spec[0]
    if tag in ("access", "sync"):
        return repr(spec)
    if tag == "task" or tag == "spawn" or tag == "finish":
        inner = ",\n".join(
            pad + "    " + _format_spec(item, indent + 1) for item in spec[1]
        )
        trailing = "," if len(spec[1]) == 1 else ""
        if not inner:
            return f"({tag!r}, ())"
        return f"({tag!r}, (\n{inner}{trailing}\n{pad}))"
    if tag == "locked":
        inner = ",\n".join(
            pad + "    " + _format_spec(item, indent + 1) for item in spec[2]
        )
        trailing = "," if len(spec[2]) == 1 else ""
        if not inner:
            return f"('locked', {spec[1]!r}, ())"
        return f"('locked', {spec[1]!r}, (\n{inner}{trailing}\n{pad}))"
    return repr(spec)
