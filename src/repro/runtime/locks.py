"""Locks, per-task locksets, and lock versioning (paper Section 3.3).

The checker needs, for every memory access, the set of locks held by the
performing task -- with the twist that a lock *released and re-acquired by
the same task gets a fresh name*.  Two accesses are protected by the same
critical section iff the intersection of their versioned locksets is
non-empty; without versioning, two separate critical sections on the same
lock ``L`` would spuriously appear to protect a two-access pattern, hiding
atomicity violations like the one in the paper's Figure 11/12 example.

:class:`LockTable` owns the mutual-exclusion side (real ``threading.Lock``
objects so the work-stealing executor genuinely excludes), and
:class:`TaskLockState` tracks the versioned lockset of one task.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Tuple

from repro.errors import RuntimeUsageError


def versioned_name(base: str, epoch: int) -> str:
    """The versioned lock name: ``L`` for epoch 0, then ``L#1``, ``L#2`` ...

    Epochs are per task, so ``L#1`` from two different tasks are distinct
    *accidentally equal* strings -- harmless, because the checker only ever
    intersects locksets of two accesses performed by the *same* task.
    """
    return base if epoch == 0 else f"{base}#{epoch}"


class TaskLockState:
    """Versioned lockset bookkeeping for one task.

    Locks are non-reentrant (matching ``tbb::mutex``): re-acquiring a held
    lock raises :class:`RuntimeUsageError`.
    """

    def __init__(self, task_id: int) -> None:
        self.task_id = task_id
        #: base name -> versioned name currently held
        self._held: Dict[str, str] = {}
        #: base name -> next epoch to use on re-acquisition
        self._epochs: Dict[str, int] = {}
        #: Both forms of the held lockset, rebuilt together on the first
        #: read after a mutation (``_dirty``), so every access between two
        #: lock operations shares one frozenset and one sorted tuple.
        self._frozen_cache: FrozenSet[str] = frozenset()
        self._tuple_cache: Tuple[str, ...] = ()
        self._dirty = False
        #: Fresh versioned names minted by re-acquisitions (epoch > 0);
        #: surfaced as the ``runtime.lock_version_bumps`` metric.
        self.versions_minted = 0

    def acquire(self, base: str) -> str:
        """Record acquisition of *base*; returns the versioned name."""
        if base in self._held:
            raise RuntimeUsageError(
                f"task {self.task_id} re-acquired lock {base!r} it already holds"
            )
        epoch = self._epochs.get(base, 0)
        if epoch:
            self.versions_minted += 1
        name = versioned_name(base, epoch)
        self._held[base] = name
        self._dirty = True
        return name

    def release(self, base: str) -> str:
        """Record release of *base*; returns the versioned name released.

        Bumps the epoch so the next acquisition by this task gets a fresh
        versioned name (the paper's lock-versioning rule).
        """
        name = self._held.pop(base, None)
        if name is None:
            raise RuntimeUsageError(
                f"task {self.task_id} released lock {base!r} it does not hold"
            )
        self._epochs[base] = self._epochs.get(base, 0) + 1
        self._dirty = True
        return name

    def _refresh(self) -> None:
        self._frozen_cache = frozenset(self._held.values())
        self._tuple_cache = tuple(sorted(self._frozen_cache))
        self._dirty = False

    def lockset(self) -> FrozenSet[str]:
        """The current versioned lockset (cached between mutations)."""
        if self._dirty:
            self._refresh()
        return self._frozen_cache

    def lockset_tuple(self) -> Tuple[str, ...]:
        """Sorted tuple form, used in events and reports.

        Cached like :meth:`lockset`: between two lock operations every call
        returns the same tuple object.
        """
        if self._dirty:
            self._refresh()
        return self._tuple_cache

    @property
    def holds_any(self) -> bool:
        return bool(self._held)

    def holds(self, base: str) -> bool:
        return base in self._held


class LockTable:
    """The program's locks: real mutual exclusion keyed by base name.

    Lazily creates a ``threading.Lock`` per name.  Serial executors never
    block on these (a serial schedule cannot contend), but the
    work-stealing executor relies on them for genuine exclusion.
    """

    def __init__(self) -> None:
        self._locks: Dict[str, threading.Lock] = {}
        self._table_guard = threading.Lock()

    def _get(self, base: str) -> threading.Lock:
        with self._table_guard:
            lock = self._locks.get(base)
            if lock is None:
                lock = threading.Lock()
                self._locks[base] = lock
            return lock

    def acquire(self, base: str) -> None:
        """Block until *base* is available and take it."""
        self._get(base).acquire()

    def release(self, base: str) -> None:
        self._get(base).release()

    def known_locks(self) -> Tuple[str, ...]:
        """Base names of every lock that has been touched, sorted."""
        with self._table_guard:
            return tuple(sorted(self._locks))
