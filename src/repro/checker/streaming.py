"""Streaming checks: a pass-through over the optimized checker.

Every check of the optimized checker is bounded in one pass: it frees a
task's local cells when the task moves to its next step and its whole
local space at its end event, and the global spaces it keeps are the
paper's fixed twelve entries per location.  So a streaming check is the
plain check.  :class:`StreamingChecker` stays as the handle
``CheckSession.check(streaming=True)`` builds, and perfbench's stream
path times, until that path goes (ROADMAP item 2b).  It binds the inner
checker's hooks directly, so it adds no call per event.
"""

from __future__ import annotations

from repro.checker.optimized import OptAtomicityChecker
from repro.errors import CheckerError
from repro.runtime.observer import RuntimeObserver

#: The inner checker's methods a wrapper serves as its own.
_DELEGATED = (
    "on_run_begin", "on_run_end", "on_task_spawn", "on_task_begin",
    "on_task_end", "on_sync", "on_memory", "on_acquire", "on_release",
    "metrics",
)


class StreamingChecker(RuntimeObserver):
    """The optimized checker behind the ``"streaming"`` report name.

    *checker* is anything :func:`repro.checker.make_checker` accepts and
    must build an :class:`~repro.checker.optimized.OptAtomicityChecker`;
    extra keyword arguments go to its factory, e.g.
    ``StreamingChecker(checker="optimized", mode="thorough")``.  Any other
    checker keeps trace-global state (velodrome's happens-before graph,
    the basic and regiontrack histories) and is refused with a
    :class:`~repro.errors.CheckerError`.
    """

    checker_name = "streaming"

    def __init__(self, checker="optimized", **checker_kwargs) -> None:
        from repro.checker import checker_name_of, make_checker

        inner = make_checker(checker, **checker_kwargs)
        if not isinstance(inner, OptAtomicityChecker):
            raise CheckerError(
                f"checker {checker_name_of(inner)!r} cannot stream: only the "
                "optimized checker frees its metadata as it goes.  "
                "Velodrome's happens-before graph and the basic/regiontrack "
                "histories grow with the trace -- check them offline instead."
            )
        self.inner = inner
        self.requires_dpst = inner.requires_dpst
        self.requires_lca = getattr(inner, "requires_lca", inner.requires_dpst)
        self.location_sharded = inner.location_sharded
        for name in _DELEGATED:
            setattr(self, name, getattr(inner, name))

    @property
    def report(self):
        return self.inner.report
