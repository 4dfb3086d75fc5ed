"""Property tests over the runtime itself (hypothesis).

Random generated programs are executed under every executor family, and
the runtime's structural outputs are cross-checked:

* the DPST always validates;
* the DPST is identical across executors (it reflects program structure,
  not schedule) -- for generated programs whose task structure is
  deterministic;
* every memory event's step is a step node owned by exactly one task;
* versioned locksets in events never mix base names wrongly;
* the shadow memory's final state agrees between array/linked layouts.
"""

from collections import defaultdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fuzz.generate import FuzzConfig, ProgramGenerator
from repro.runtime import (
    RandomOrderExecutor,
    SerialExecutor,
    run_program,
)

CONFIG = FuzzConfig(
    tasks=5, accesses_per_task=4, locations=3, locks=2, depth=3,
    lock_density=0.5, finish_probability=0.2, template_probability=0.0, seed=0,
)


def generated(seed):
    return ProgramGenerator(CONFIG).generate_program(seed=seed)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dpst_always_validates(seed):
    result = run_program(generated(seed), record_trace=True)
    result.dpst.validate()


def _canonical(tree, node=0):
    """Schedule-independent tree fingerprint: kinds in sibling order.

    Node *ids* follow global insertion order, which depends on how the
    executor interleaved tasks; the tree *shape* (children per node, in
    sibling order) reflects only the program structure.
    """
    return (
        int(tree.kind(node)),
        tuple(_canonical(tree, child) for child in tree.children(node)),
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_dpst_shape_schedule_independent(seed):
    program = generated(seed)
    shapes = []
    for executor in (
        SerialExecutor(),
        SerialExecutor(policy="help_first", order="lifo"),
        RandomOrderExecutor(seed=seed ^ 0xABC),
    ):
        result = run_program(program, executor=executor, record_trace=True)
        shapes.append(_canonical(result.dpst))
    assert shapes[0] == shapes[1] == shapes[2]


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_steps_are_leaf_nodes_owned_by_one_task(seed):
    result = run_program(generated(seed), record_trace=True)
    owner = {}
    for event in result.recorder.memory_events():
        assert result.dpst.is_step(event.step)
        owner.setdefault(event.step, event.task)
        assert owner[event.step] == event.task


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_step_events_are_contiguous_per_task(seed):
    """Within one task's event stream, a step never resumes after ending."""
    result = run_program(generated(seed), record_trace=True)
    per_task = defaultdict(list)
    for event in result.recorder.memory_events():
        per_task[event.task].append(event.step)
    for steps in per_task.values():
        seen = set()
        previous = None
        for step in steps:
            if step != previous:
                assert step not in seen, "step resumed after being left"
                seen.add(step)
            previous = step


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_locksets_wellformed(seed):
    """At most one versioned instance of a base lock is ever held."""
    result = run_program(generated(seed), record_trace=True)
    for event in result.recorder.memory_events():
        bases = [name.split("#")[0] for name in event.lockset]
        assert len(bases) == len(set(bases))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_layouts_agree_on_final_memory(seed):
    program = generated(seed)
    array = run_program(program, dpst_layout="array", build_dpst=True)
    linked = run_program(program, dpst_layout="linked", build_dpst=True)
    assert array.shadow.snapshot() == linked.shadow.snapshot()


@given(seed=st.integers(min_value=0, max_value=3_000))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_workstealing_produces_valid_dpst(seed):
    from repro.runtime import WorkStealingExecutor

    program = generated(seed)
    result = run_program(
        program, executor=WorkStealingExecutor(workers=3), record_trace=True
    )
    result.dpst.validate()
    # Same canonical shape as the serial run (ids may permute).
    serial = run_program(program, record_trace=True)
    assert _canonical(result.dpst) == _canonical(serial.dpst)