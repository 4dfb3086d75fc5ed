"""Per-access dispatch: a lone observer is called directly, bypassing the
:class:`~repro.runtime.observer.ObserverChain` fan-out, and must see
exactly what it would see through the chain.

``checkers=["optimized"]`` attaches one observer (the direct path);
adding ``collect_stats=True`` attaches a second, so the same checker is
reached through the chain.  On every suite program both runs must give
the same normalized report and the same ``checker.*``/``engine.*``
counters.  The work-stealing executor runs with one worker: the access
still arrives from a pool thread, but the schedule is deterministic, so
the two runs can be compared event for event.
"""

import pytest

from repro.checker import OptAtomicityChecker
from repro.report import normalize_report
from repro.runtime import (
    SerialExecutor,
    StatsObserver,
    WorkStealingExecutor,
    run_program,
)
from repro.runtime.executor import Runtime
from repro.suite import all_cases

CASES = all_cases()

EXECUTORS = {
    "serial": SerialExecutor,
    "worksteal": lambda: WorkStealingExecutor(workers=1),
}

CHECKERS = {
    "paper": lambda: "optimized",
    "thorough": lambda: OptAtomicityChecker(mode="thorough"),
}


def _compared(result):
    counters = {
        name: value
        for name, value in result.metrics.items()
        if name.startswith(("checker.", "engine."))
    }
    return normalize_report(result.report()), counters


class TestBinding:
    def test_lone_observer_is_called_directly(self):
        checker = OptAtomicityChecker()
        runtime = Runtime(SerialExecutor(), observers=[checker])
        assert runtime._on_memory == checker.on_memory

    @pytest.mark.parametrize("count", [0, 2])
    def test_otherwise_the_chain_dispatches(self, count):
        observers = [StatsObserver() for _ in range(count)]
        runtime = Runtime(SerialExecutor(), observers=observers, build_dpst=True)
        assert runtime._on_memory == runtime.observer.on_memory


@pytest.mark.parametrize("mode", sorted(CHECKERS))
@pytest.mark.parametrize("executor", sorted(EXECUTORS))
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_direct_dispatch_matches_chain(case, executor, mode):
    make_executor = EXECUTORS[executor]
    make_checker = CHECKERS[mode]
    direct = run_program(
        case.build(), executor=make_executor(), checkers=[make_checker()]
    )
    chained = run_program(
        case.build(),
        executor=make_executor(),
        checkers=[make_checker()],
        collect_stats=True,
    )
    assert len(chained.observers) == 2
    assert _compared(direct) == _compared(chained)
