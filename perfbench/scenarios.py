"""The benchmark's seeded workloads, each with a verdict known by construction.

A workload is a tuple of task-parallel programs plus the set of locations
(as :func:`repro.report.location_key` strings) its programs violate by
construction.  The benchmark runs every program live -- uninstrumented,
under a checker, and recording -- and checks its recorded trace offline
in every mode, so each workload exercises every layer and every verdict
has a known answer.  Why each workload is in the set:

* ``paper13`` -- the 13 Table 1 kernels, violation-free by design: the
  paper's Fig. 13 comparison.  Many small traces, so fixed per-check
  costs (opening a file, starting workers) weigh the most here.
* ``churn`` -- thousands of short tasks doing lock-protected RMWs on 8
  shared scalars, plus one unlocked racy pair on ``('bug',)``.  Stresses
  per-task local metadata and locksets; streaming frees finished tasks.
* ``flat`` -- 256 sibling tasks doing unlocked RMWs on task-private cells;
  2% of the RMWs, each in a different task, hit ``('shared', 0..7)``.  Thousands of tracked
  locations and violations: global metadata dominates, so streaming frees
  little, the parallelism engine is nearly idle, and a cache hit loads a
  large report.
* ``dnc`` -- recursive binary fork-join; leaves RMW two private cells and
  one of 64 locked histogram bins, joins read their children's cells, and
  two leaves race on ``('bug',)``.  A deep tree queried with mostly unique
  step pairs: the regime where engine and DPST work shows.

The seed permutes which tasks touch which locations (for ``paper13``,
the kernel order); it never changes a workload's size or the shape of
its report, so runs with different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.report import location_key
from repro.runtime.program import TaskProgram
from repro.workloads import all_workloads

#: Shared scalars of ``churn``; each task's locked RMWs rotate over them.
CHURN_SCALARS = 8
#: Locked RMWs per ``churn`` task.
CHURN_RMWS = 4
#: Sibling tasks of ``flat``.
FLAT_TASKS = 256
#: Private cells per ``flat`` task.
FLAT_CELLS = 512
#: Share of ``flat`` RMWs that hit the contended ``('shared', i)`` set.
FLAT_SHARED = 0.02
#: Lock-protected histogram bins of ``dnc``.
DNC_BINS = 64

#: Size argument of each workload: (full run, ``--quick`` run).  Memory
#: events for churn/flat, tree depth for dnc, kernel scale for paper13.
SIZES = {
    "paper13": (2, 1),
    "churn": (10_000, 2_000),
    "flat": (10_000, 2_000),
    "dnc": (10, 7),
}


@dataclass(frozen=True)
class Scenario:
    """One workload: its programs and the locations they must violate."""

    name: str
    programs: Tuple[TaskProgram, ...]
    expected: FrozenSet[str]


def build(name: str, seed: int, quick: bool = False) -> Scenario:
    """The workload *name* generated from *seed* at its benchmark size."""
    size = SIZES[name][1 if quick else 0]
    return _BUILDERS[name](size, seed)


def _rmw(ctx, location) -> None:
    ctx.write(location, ctx.read(location) + 1)


# -- churn ---------------------------------------------------------------------


def _churn_task(ctx, scalars, racy) -> None:
    if racy:
        _rmw(ctx, ("bug",))
    for location in scalars:
        with ctx.lock(f"m{location[1]}"):
            _rmw(ctx, location)


def _churn_root(ctx, plan) -> None:
    for scalars, racy in plan:
        ctx.spawn(_churn_task, scalars, racy)
    ctx.sync()


def churn(events: int, seed: int) -> Scenario:
    """Short root-level tasks of locked RMWs; two of them race on ``bug``."""
    rng = random.Random(seed)
    order = [("shared", i) for i in range(CHURN_SCALARS)]
    rng.shuffle(order)
    tasks = max(2, events // (2 * CHURN_RMWS))
    racy = set(rng.sample(range(tasks), 2))
    plan = tuple(
        (
            tuple(order[(task + i) % CHURN_SCALARS] for i in range(CHURN_RMWS)),
            task in racy,
        )
        for task in range(tasks)
    )
    program = TaskProgram(_churn_root, name="churn", args=(plan,))
    return Scenario("churn", (program,), frozenset({location_key(("bug",))}))


# -- flat ----------------------------------------------------------------------


def _flat_task(ctx, cells) -> None:
    for location in cells:
        _rmw(ctx, location)


def _flat_root(ctx, plan) -> None:
    for cells in plan:
        ctx.spawn(_flat_task, cells)
    ctx.sync()


def flat(events: int, seed: int) -> Scenario:
    """Sibling tasks over private cells plus a contended shared set."""
    rng = random.Random(seed)
    per_task = max(1, events // (2 * FLAT_TASKS))
    plan = [
        [("private", task, rng.randrange(FLAT_CELLS)) for _ in range(per_task)]
        for task in range(FLAT_TASKS)
    ]
    # The same number of distinct tasks RMW each shared scalar once, so
    # every seed gives all eight scalars, and the report, the same shape.
    per_scalar = max(2, round(FLAT_SHARED * per_task * FLAT_TASKS / 8))
    tasks = rng.sample(range(FLAT_TASKS), min(FLAT_TASKS, 8 * per_scalar))
    for rank, task in enumerate(tasks):
        plan[task][rng.randrange(per_task)] = ("shared", rank % 8)
    program = TaskProgram(
        _flat_root, name="flat", args=(tuple(tuple(cells) for cells in plan),)
    )
    expected = frozenset(location_key(("shared", i)) for i in range(8))
    return Scenario("flat", (program,), expected)


# -- dnc -----------------------------------------------------------------------


def _dnc_node(ctx, depth, index, leaves) -> None:
    if depth == 0:
        bin_index, racy = leaves[index]
        _rmw(ctx, ("seg", 0, index, 0))
        _rmw(ctx, ("seg", 0, index, 1))
        with ctx.lock(f"h{bin_index}"):
            _rmw(ctx, ("bin", bin_index))
        if racy:
            _rmw(ctx, ("bug",))
        return
    ctx.spawn(_dnc_node, depth - 1, 2 * index, leaves)
    ctx.spawn(_dnc_node, depth - 1, 2 * index + 1, leaves)
    ctx.sync()
    total = ctx.read(("seg", depth - 1, 2 * index, 0))
    total += ctx.read(("seg", depth - 1, 2 * index + 1, 0))
    ctx.write(("seg", depth, index, 0), total)


def dnc(depth: int, seed: int) -> Scenario:
    """Binary fork-join of *depth* levels; two leaves race on ``bug``."""
    rng = random.Random(seed)
    count = 1 << depth
    racy = set(rng.sample(range(count), 2))
    leaves = tuple((rng.randrange(DNC_BINS), leaf in racy) for leaf in range(count))
    program = TaskProgram(_dnc_node, name="dnc", args=(depth, 0, leaves))
    return Scenario("dnc", (program,), frozenset({location_key(("bug",))}))


# -- paper13 -------------------------------------------------------------------


def paper13(scale: int, seed: int) -> Scenario:
    """The 13 Table 1 kernels at *scale*, in a seed-rotated order."""
    specs = all_workloads()
    shift = seed % len(specs)
    programs = tuple(spec.build(scale) for spec in specs[shift:] + specs[:shift])
    return Scenario("paper13", programs, frozenset())


_BUILDERS = {"paper13": paper13, "churn": churn, "flat": flat, "dnc": dnc}
