"""Interrupting a sharded check for real, for the resume tests and CI.

A finished check leaves only its whole-result cache entry, so a test of
resuming from shard entries first stops a run before that entry lands.
"""

import contextlib
import os
from unittest import mock

from repro.cache import ResultCache
from repro.checker.supervisor import FAULT_SLEEP_ENV


class Interrupted(Exception):
    """A driver stopped between two result-cache stores."""


@contextlib.contextmanager
def interrupted(jobs=2, stalled=None):
    """Stop the ``jobs``-way cached check run in the block for real,
    before it stores the whole-result entry; fail if it was not stopped.

    Every shard's entry is stored first.  With *stalled*, that shard's
    worker sleeps instead, and the driver stops the moment the other
    shards are stored, killing the sleeper: only the stalled shard has
    no entry.
    """
    store = ResultCache.store
    waiting = set(range(jobs)) - {stalled}

    def failing_store(cache, key, report, meta=None):
        if "." not in key:
            raise Interrupted("before the whole-result entry")
        nbytes = store(cache, key, report, meta)
        waiting.discard(int(key.rsplit("-", 1)[1]))
        if stalled is not None and not waiting:
            raise Interrupted(f"after {key}")
        return nbytes

    hooks = {} if stalled is None else {FAULT_SLEEP_ENV: f"{stalled}@*:30"}
    with mock.patch.object(ResultCache, "store", failing_store), \
            mock.patch.dict(os.environ, hooks):
        try:
            yield
        except Interrupted:
            return
    raise AssertionError("the check stored its whole-result entry")
