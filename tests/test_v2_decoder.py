"""The v2 reader's typed memory-line decoder agrees with the generic one.

``TraceReader`` builds each memory line's ``MemoryEvent`` straight from
the parsed row.  On the v2 traces of the 36 suite programs and the 13
workloads (scale 1), every event each streaming view yields must equal,
and have the type and ``repr`` of, ``event_from_dict(json.loads(line))``
for its line.  The same holds on those files rewritten the way another
writer may produce them: compact separators, sorted keys, no ``"sk"``
stamp and no empty ``"lockset"``.
"""

import json

import pytest

from repro.runtime import run_program
from repro.runtime.events import MemoryEvent, TaskEndEvent
from repro.trace.serialize import (
    dump_trace,
    event_from_dict,
    open_trace,
    shard_for_location,
)
from tests.make_optimized_golden import programs

PROGRAMS = programs()
JOBS = 3


def external(path):
    """Rewrite the v2 file at *path* as another writer might."""
    with open(path, encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    for row in rows:
        row.pop("sk", None)
        if row.get("lockset") == []:
            del row["lockset"]
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, separators=(",", ":"), sort_keys=True))
            handle.write("\n")


def generic(path):
    """Each event line of *path* through the generic decoder."""
    with open(path, encoding="utf-8") as handle:
        handle.readline()  # header
        return [event_from_dict(json.loads(line)) for line in handle]


def test_covers_the_suite_and_the_workloads():
    assert len(PROGRAMS) == 36 + 13


def assert_same(decoded, expected):
    assert len(decoded) == len(expected)
    for got, want in zip(decoded, expected):
        assert type(got) is type(want)
        assert got == want
        # Tells 1 from 1.0 and True in a location, and a tuple from a list.
        assert repr(got) == repr(want)


@pytest.mark.parametrize("shape", ["writer", "external"])
@pytest.mark.parametrize("name,build", PROGRAMS, ids=[name for name, _ in PROGRAMS])
def test_every_view_matches_the_generic_decoder(tmp_path, name, build, shape):
    path = str(tmp_path / "t.jsonl")
    dump_trace(run_program(build(), record_trace=True).trace, path)
    if shape == "external":
        external(path)
    expected = generic(path)
    memory = [e for e in expected if type(e) is MemoryEvent]
    reader = open_trace(path)
    assert_same(list(reader.events()), expected)
    assert_same(list(reader.memory_events()), memory)
    assert_same(
        list(reader.checking_events()),
        [e for e in expected if type(e) in (MemoryEvent, TaskEndEvent)],
    )
    for shard in range(JOBS):
        assert_same(
            list(reader.memory_events(shard=shard, jobs=JOBS)),
            [e for e in memory if shard_for_location(e.location, JOBS) == shard],
        )
