"""Static locksets with lock versioning (paper Section 3.3, statically).

The dynamic runtime (:mod:`repro.runtime.locks`) gives a lock that one
task releases and re-acquires a *fresh versioned name* (``L``, ``L#1``,
``L#2`` ...), so that two separate critical sections never spuriously
appear to protect a two-access pattern spanning them.  The checkers then
treat a same-step pair as unsplittable only when the versioned locksets
of its two accesses intersect.

:class:`StaticLockState` replays exactly that rule over the *lexical*
critical-section scopes the skeleton builder walks (``with ctx.lock(L)``
blocks, ``locked`` spec items, manual ``ctx.acquire``/``ctx.release``
call sites): every re-entry into the same base lock within one task mints
a fresh version, so the static lockset of an access agrees with what the
instrumented runtime would stamp on the corresponding event of a serial
execution.

Lock names that are not compile-time constants get a per-site synthetic
base name.  That is safe for the candidate-triple rule: two accesses in
the same lexical scope dynamically share one critical section whatever
the name evaluates to, and accesses in different scopes can never share a
*versioned* name (re-acquisition re-versions), so scope-keyed synthetic
names reproduce the dynamic intersections exactly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.runtime.locks import versioned_name


class StaticLockState:
    """Versioned lockset bookkeeping for one static task.

    Mirrors :class:`repro.runtime.locks.TaskLockState`: non-reentrant
    acquisition, per-base epoch counters, fresh versioned names on
    re-acquisition.  Imbalances do not raise -- the skeleton builder
    records them as facts so the lint pass can report ``SAV104`` -- but
    the state stays consistent (a bad acquire/release is ignored).
    """

    def __init__(self) -> None:
        self._held: Dict[str, str] = {}
        self._epochs: Dict[str, int] = {}
        #: (kind, base, site) imbalance facts, in discovery order.
        self.imbalances: List[Tuple[str, str, str]] = []

    def acquire(self, base: str, site: str = "") -> Optional[str]:
        """Record acquisition of *base*; returns the versioned name.

        Re-acquiring a held lock is recorded as an imbalance (the runtime
        would raise :class:`~repro.errors.RuntimeUsageError`) and ignored.
        """
        if base in self._held:
            self.imbalances.append(("reacquire", base, site))
            return None
        epoch = self._epochs.get(base, 0)
        name = versioned_name(base, epoch)
        self._held[base] = name
        return name

    def release(self, base: str, site: str = "") -> Optional[str]:
        """Record release of *base*; bumps the epoch (the versioning rule)."""
        name = self._held.pop(base, None)
        if name is None:
            self.imbalances.append(("release-unheld", base, site))
            return None
        self._epochs[base] = self._epochs.get(base, 0) + 1
        return name

    def drain(self, site: str = "") -> None:
        """End of task: anything still held is an acquire-without-release."""
        for base in sorted(self._held):
            self.imbalances.append(("unreleased", base, site))
        self._held.clear()

    def held(self) -> FrozenSet[str]:
        """The current versioned lockset."""
        return frozenset(self._held.values())

    @property
    def balanced(self) -> bool:
        return not self.imbalances and not self._held


def locks_disjoint(first: FrozenSet[str], second: FrozenSet[str]) -> bool:
    """No common versioned lock: the accesses lie in different critical
    sections, so a parallel access can interleave between them.

    The same predicate the dynamic checkers apply to the lockset tuples of
    a same-step pair of events (for instance ``_locks_disjoint`` in
    :mod:`repro.checker.basic`); the interleaver's own lockset is never
    consulted -- it can always slot between two critical sections.
    """
    if not first or not second:
        return True
    return not (first & second)
