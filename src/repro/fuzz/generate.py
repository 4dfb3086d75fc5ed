"""Seeded random task-parallel program generator (paper Section 4).

The paper's evaluation mentions "a trace generator that takes the number
of tasks and memory accesses as parameter and generates execution traces",
used to demonstrate that the prototype detects all atomicity violations
for a given input from a *single* trace.  :class:`ProgramGenerator` is
that tool, and the program source of differential fuzzing: running a
generated program under any executor yields an execution trace of the
configured shape (:meth:`ProgramGenerator.generate_trace`), and the same
program can be re-run under other schedules to cross-check schedule
insensitivity.

Programs are emitted as *spec trees* -- the plain-tuple language the
static lint pass (:func:`repro.static.lint.lint_spec`) also speaks::

    ("task", (items...))                    the root task
    ("access", location, "read"|"write")    an instrumented access
    ("locked", lock_name, (items...))       a balanced critical section
    ("spawn", (items...))                   a child task
    ("sync",)                               wait for children
    ("finish", (items...))                  an explicit finish scope

Spec trees are printable, hashable, exactly lintable, runnable
(:func:`program_from_spec`) and structurally shrinkable
(:mod:`repro.fuzz.shrink`) -- which is what makes them the lingua franca
of the fuzzing subsystem.  On top of the primitive moves, the generator
expands two fork-join *templates* into plain spec nodes:

``parallel_for``
    a finish scope joining ``width`` iteration tasks, each touching its
    own indexed element plus (sometimes) one shared location;
``reduce``
    ``width`` tasks performing a read-modify-write on one accumulator
    (optionally under a lock), joined by a sync, followed by a read of
    the result in the parent.

Every random decision flows through one injected ``random.Random(seed)``
instance, so ``generate_spec(seed)`` is a pure function of the seed and
the :class:`FuzzConfig` -- the property the oracle's provenance and the
shrinker's reproducers rely on.  Locks only ever appear as balanced
``locked`` blocks that contain no ``spawn``, so generated programs can
never self-deadlock under the child-first serial executor.
``template_probability=0.0`` generates programs of primitive moves only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.checker.annotations import AtomicAnnotations
from repro.runtime.program import TaskProgram, run_program
from repro.runtime.task import TaskContext

Location = Hashable

#: A spec tree or item, in the plain-tuple language above.
Spec = Tuple[Any, ...]


@dataclass
class FuzzConfig:
    """Knobs of the fuzzing program generator.

    ``tasks`` bounds the number of *spawned* tasks (the root is free);
    ``depth`` bounds spawn nesting; ``locations`` shared scalars named
    ``("g", i)`` are drawn uniformly; ``lock_density`` is the fraction of
    locations protected by one of the ``locks`` program locks.
    """

    tasks: int = 6
    depth: int = 3
    locations: int = 3
    accesses_per_task: int = 4
    locks: int = 2
    lock_density: float = 0.4
    write_probability: float = 0.5
    sync_probability: float = 0.3
    finish_probability: float = 0.25
    #: Probability that a spawn slot expands a parallel_for/reduce
    #: template instead of a single child task.
    template_probability: float = 0.3
    #: Maximum width of a template (iterations / reducers).
    fanout: int = 3
    #: Fixed lock per location (the discipline under which the paper's
    #: lock rule is complete); ``False`` generates ad-hoc critical
    #: sections instead.
    consistent_locking: bool = True
    seed: int = 0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for provenance records and ``--json`` output."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ProgramGenerator:
    """Generates random task-parallel spec trees from a :class:`FuzzConfig`."""

    def __init__(self, config: Optional[FuzzConfig] = None) -> None:
        self.config = config or FuzzConfig()

    # -- spec generation ---------------------------------------------------

    def generate_spec(self, seed: Optional[int] = None) -> Spec:
        """The root task's spec tree, deterministic in the seed."""
        config = self.config
        rng = random.Random(config.seed if seed is None else seed)
        budget = [max(0, config.tasks)]
        locks = self._assign_locks(rng)
        items = self._gen_task(rng, budget, depth=0, location_lock=locks)
        if not _has_access(items):
            # Degenerate draws still have to be checkable programs.
            items = items + [self._gen_access(rng, locks)]
        return ("task", tuple(items))

    def generate_program(self, seed: Optional[int] = None) -> TaskProgram:
        """Generate a random runnable :class:`TaskProgram`."""
        actual = self.config.seed if seed is None else seed
        return program_from_spec(
            self.generate_spec(actual), name=f"fuzz(seed={actual})"
        )

    def generate_trace(self, seed: Optional[int] = None, executor=None):
        """Generate a program, run it under *executor*, and return the
        recorded :class:`~repro.trace.trace.Trace`."""
        program = self.generate_program(seed)
        return run_program(program, executor=executor, record_trace=True).trace

    # -- internals ---------------------------------------------------------

    def _assign_locks(self, rng: random.Random) -> Dict[Location, Optional[str]]:
        config = self.config
        assignment: Dict[Location, Optional[str]] = {}
        for index in range(max(1, config.locations)):
            location = ("g", index)
            if config.locks > 0 and rng.random() < config.lock_density:
                assignment[location] = f"L{rng.randrange(config.locks)}"
            else:
                assignment[location] = None
        return assignment

    def _gen_task(
        self,
        rng: random.Random,
        budget: List[int],
        depth: int,
        location_lock: Dict[Location, Optional[str]],
    ) -> List[Spec]:
        """One task's body: shuffled accesses, spawns, templates, syncs."""
        config = self.config
        body: List[Spec] = []
        actions = ["access"] * rng.randint(1, max(1, config.accesses_per_task))
        if depth < config.depth and budget[0] > 0:
            actions += ["spawn"] * rng.randint(0, 2)
            actions += ["template"] * (1 if rng.random() < config.template_probability else 0)
        rng.shuffle(actions)
        spawned_since_sync = False
        for action in actions:
            if action == "access":
                body.append(self._gen_access(rng, location_lock))
            elif action == "spawn" and budget[0] > 0:
                budget[0] -= 1
                child = self._gen_task(rng, budget, depth + 1, location_lock)
                spawn_spec: Spec = ("spawn", tuple(child))
                if rng.random() < config.finish_probability:
                    body.append(("finish", (spawn_spec,)))
                else:
                    body.append(spawn_spec)
                    spawned_since_sync = True
                if spawned_since_sync and rng.random() < config.sync_probability:
                    body.append(("sync",))
                    spawned_since_sync = False
            elif action == "template" and budget[0] > 0:
                template = rng.choice(("parallel_for", "reduce"))
                if template == "parallel_for":
                    body.extend(self._gen_parallel_for(rng, budget, depth, location_lock))
                else:
                    body.extend(self._gen_reduce(rng, budget, location_lock))
                spawned_since_sync = False
        if spawned_since_sync and depth > 0 and rng.random() < config.sync_probability:
            body.append(("sync",))
        return body

    def _gen_access(
        self,
        rng: random.Random,
        location_lock: Dict[Location, Optional[str]],
    ) -> Spec:
        config = self.config
        location = ("g", rng.randrange(max(1, config.locations)))
        kind = "write" if rng.random() < config.write_probability else "read"
        access: Spec = ("access", location, kind)
        if config.consistent_locking:
            lock = location_lock.get(location)
        elif config.locks > 0 and rng.random() < config.lock_density:
            lock = f"L{rng.randrange(config.locks)}"
        else:
            lock = None
        if lock is None:
            return access
        # Sometimes widen the critical section into a read-modify-write.
        if rng.random() < 0.5:
            return ("locked", lock, (("access", location, "read"), ("access", location, "write")))
        return ("locked", lock, (access,))

    def _gen_parallel_for(
        self,
        rng: random.Random,
        budget: List[int],
        depth: int,
        location_lock: Dict[Location, Optional[str]],
    ) -> List[Spec]:
        """A finish scope joining ``width`` iteration tasks."""
        config = self.config
        width = min(budget[0], rng.randint(2, max(2, config.fanout)))
        if width <= 0:
            return []
        budget[0] -= width
        shared = rng.random() < 0.5
        iterations: List[Spec] = []
        for index in range(width):
            element: Spec = ("access", ("g", index % max(1, config.locations)), "write")
            items: List[Spec] = [element]
            if shared:
                items.append(self._gen_access(rng, location_lock))
            if depth + 1 < config.depth and budget[0] > 0 and rng.random() < 0.3:
                budget[0] -= 1
                nested = self._gen_task(rng, budget, depth + 2, location_lock)
                items.append(("spawn", tuple(nested)))
            iterations.append(("spawn", tuple(items)))
        return [("finish", tuple(iterations))]

    def _gen_reduce(
        self,
        rng: random.Random,
        budget: List[int],
        location_lock: Dict[Location, Optional[str]],
    ) -> List[Spec]:
        """``width`` read-modify-write reducers into one accumulator."""
        config = self.config
        width = min(budget[0], rng.randint(2, max(2, config.fanout)))
        if width <= 0:
            return []
        budget[0] -= width
        accumulator = ("g", rng.randrange(max(1, config.locations)))
        lock = location_lock.get(accumulator) if self.config.consistent_locking else (
            f"L{rng.randrange(config.locks)}" if config.locks > 0 and rng.random() < config.lock_density else None
        )
        rmw: Tuple[Spec, ...] = (
            ("access", accumulator, "read"),
            ("access", accumulator, "write"),
        )
        reducer: Spec = ("locked", lock, rmw) if lock is not None else None
        body: List[Spec] = []
        for _ in range(width):
            items = (reducer,) if reducer is not None else rmw
            body.append(("spawn", items))
        body.append(("sync",))
        body.append(("access", accumulator, "read"))
        return body


# ---------------------------------------------------------------------------
# Spec utilities (shared with the oracle and the shrinker)
# ---------------------------------------------------------------------------


def spec_locations(spec: Spec) -> List[Location]:
    """Distinct locations accessed anywhere in *spec*, in first-seen order."""
    seen: Dict[Location, None] = {}

    def visit(items: Sequence[Spec]) -> None:
        for item in items:
            tag = item[0]
            if tag == "access":
                location = item[1]
                seen.setdefault(tuple(location) if isinstance(location, list) else location)
            elif tag in ("locked", "spawn", "finish"):
                visit(item[2] if tag == "locked" else item[1])

    visit(spec[1] if spec and spec[0] == "task" else spec)
    return list(seen)


def spec_access_count(spec: Spec) -> int:
    """Number of ``access`` nodes in *spec* -- the memory events one run
    performs (spec interpretation is straight-line: each node runs once)."""
    count = 0

    def visit(items: Sequence[Spec]) -> None:
        nonlocal count
        for item in items:
            tag = item[0]
            if tag == "access":
                count += 1
            elif tag in ("locked", "spawn", "finish"):
                visit(item[2] if tag == "locked" else item[1])

    visit(spec[1] if spec and spec[0] == "task" else spec)
    return count


def spec_task_count(spec: Spec) -> int:
    """Number of ``spawn`` nodes in *spec* (the root task is not counted)."""
    count = 0

    def visit(items: Sequence[Spec]) -> None:
        nonlocal count
        for item in items:
            tag = item[0]
            if tag == "spawn":
                count += 1
                visit(item[1])
            elif tag in ("locked", "finish"):
                visit(item[2] if tag == "locked" else item[1])

    visit(spec[1] if spec and spec[0] == "task" else spec)
    return count


def program_from_spec(spec: Spec, name: str = "fuzzed") -> TaskProgram:
    """Wrap a spec tree in a runnable :class:`TaskProgram`.

    The initial memory is derived from the spec itself (every accessed
    location starts at ``0``), so shrunk specs -- which may touch fewer
    locations than the config that bred them -- stay self-contained.
    """
    if not spec or spec[0] != "task":
        raise ValueError(f"root spec must be a task, got {spec[0] if spec else spec!r}")
    root_items = spec[1]

    def body(ctx: Any) -> None:
        _run_items(ctx, root_items)

    initial = {location: 0 for location in spec_locations(spec)}
    return TaskProgram(
        body,
        name=name,
        initial_memory=initial,
        annotations=AtomicAnnotations(),
    )


def _run_items(ctx: TaskContext, items: Sequence[Spec]) -> None:
    """Interpret a spec item list against the TaskContext API."""
    for item in items:
        kind = item[0]
        if kind == "access":
            _, location, access_type = item
            if access_type == "read":
                ctx.read(location)
            else:
                ctx.write(location, ctx.task_id)
        elif kind == "locked":
            _, lock_name, inner = item
            with ctx.lock(lock_name):
                _run_items(ctx, inner)
        elif kind == "spawn":
            _, child_items = item
            ctx.spawn(_run_items, child_items)
        elif kind == "sync":
            ctx.sync()
        elif kind == "finish":
            _, inner = item
            with ctx.finish():
                _run_items(ctx, inner)
        else:
            raise ValueError(f"unknown spec item {kind!r}")


def _has_access(items: Sequence[Spec]) -> bool:
    for item in items:
        tag = item[0]
        if tag == "access":
            return True
        if tag in ("locked", "spawn", "finish"):
            if _has_access(item[2] if tag == "locked" else item[1]):
                return True
    return False
