"""The columnar (v3) trace format: writer, reader, sniffing, sharding."""

import collections
import dataclasses
import enum
import gc
import hashlib
import io
import json
import os
import struct
import tracemalloc
import zlib

import pytest

from repro import CheckSession
from repro.errors import TraceError
from repro.runtime import TaskProgram, run_program
from repro.runtime.events import (
    AcquireEvent,
    MemoryEvent,
    ReleaseEvent,
    SyncEvent,
    TaskBeginEvent,
    TaskEndEvent,
    TaskSpawnEvent,
)
from repro.suite import all_cases
from repro.trace.columnar import (
    COLUMNAR_MAGIC,
    MAX_FRAME_EVENTS,
    ColumnarTraceReader,
    ColumnarTraceWriter,
    dump_trace_columnar,
    is_columnar_trace,
)
from repro.trace.serialize import (
    LocationTable,
    encode_location,
    plain_location,
    dump_trace,
    dump_trace_jsonl,
    is_jsonl_trace,
    load_trace,
    location_shard_key,
    shard_for_location,
    open_trace,
)
from repro.trace.trace import Trace
from tests.v3_files import footer_table, rewrite_to_tagged, rewrite_v3


def recorded_run():
    def child(ctx, i):
        with ctx.lock("L"):
            ctx.add(("cell", i % 2), 1)

    def main(ctx):
        for i in range(3):
            ctx.spawn(child, i)
        ctx.sync()

    return run_program(
        TaskProgram(main, initial_memory={("cell", 0): 0, ("cell", 1): 0}),
        record_trace=True,
    )


@pytest.fixture
def trace():
    return recorded_run().trace


def event_rows(events):
    """Comparable rows: every field of every event, in order."""
    return [
        (type(e).__name__,) + tuple(getattr(e, f.name) for f in dataclasses.fields(e))
        for e in events
    ]


EVENT_KINDS = (
    TaskSpawnEvent, TaskBeginEvent, TaskEndEvent, SyncEvent,
    MemoryEvent, AcquireEvent, ReleaseEvent,
)


def long_run():
    """~4.8k events that repeat all seven event kinds from start to end,
    so frames of 1, 7 or 4096 events split every kind across boundaries."""

    def child(ctx, i):
        with ctx.lock(f"L{i % 3}"):
            ctx.add(("cell", i % 5), 1)
        ctx.write(("own", i), i)

    def main(ctx):
        for batch in range(60):
            for i in range(10):
                ctx.spawn(child, batch * 10 + i)
            ctx.sync()

    program = TaskProgram(
        main, initial_memory={("cell", k): 0 for k in range(5)}
    )
    return run_program(program, record_trace=True)


class TestRoundTrip:
    def test_every_event_type_survives(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        loaded = load_trace(path)
        assert event_rows(loaded.events) == event_rows(trace.events)
        assert len(loaded.dpst) == len(trace.dpst)
        loaded.validate()

    def test_all_seven_event_kinds_covered(self, trace):
        # The fixture must keep exercising every tag the format encodes.
        assert {type(e) for e in trace.events} == set(EVENT_KINDS)

    def test_exotic_locations(self, tmp_path):
        # Locations that collide under == / hash (1, 1.0, True) must
        # intern separately; floats, None, and nesting must round-trip.
        locations = [
            1, 1.0, True, 0, False, None, "x",
            ("a", 0.5, None), ("a", ("b", False)),
        ]
        events = [
            MemoryEvent(i, 0, i, loc, "read", ()) for i, loc in
            enumerate(locations)
        ]
        path = str(tmp_path / "t.trc")
        with ColumnarTraceWriter(path) as writer:
            writer.write_all(events)
        loaded = list(ColumnarTraceReader(path).events())
        got = [e.location for e in loaded]
        assert [repr(l) for l in got] == [repr(l) for l in locations]

    def test_locksets_survive(self, tmp_path):
        events = [
            MemoryEvent(0, 0, 0, "x", "write", ("L", "M")),
            MemoryEvent(1, 1, 0, "x", "write", ()),
            MemoryEvent(2, 2, 0, "x", "write", ("L",)),
        ]
        path = str(tmp_path / "t.trc")
        with ColumnarTraceWriter(path) as writer:
            writer.write_all(events)
        loaded = list(ColumnarTraceReader(path).events())
        assert [e.lockset for e in loaded] == [("L", "M"), (), ("L",)]

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(Trace([]), path)
        reader = ColumnarTraceReader(path)
        assert reader.count == 0
        assert list(reader.events()) == []
        assert list(reader.memory_events(shard=0, jobs=4)) == []

    def test_dpst_free_trace(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        with ColumnarTraceWriter(path) as writer:
            writer.write_all(trace.events)
        reader = open_trace(path)
        assert reader.dpst is None
        assert len(list(reader.events())) == len(trace.events)

    def test_uncompressed_frames(self, trace, tmp_path):
        plain = str(tmp_path / "plain.trc")
        packed = str(tmp_path / "packed.trc")
        dump_trace_columnar(trace, plain, compress=False)
        dump_trace_columnar(trace, packed, compress=True)
        assert event_rows(load_trace(plain).events) == event_rows(
            load_trace(packed).events
        )

    def test_small_frames_flush_correctly(self, trace, tmp_path):
        for frame_events in (1, 2, len(trace.events), 10_000):
            path = str(tmp_path / f"t{frame_events}.trc")
            dump_trace_columnar(trace, path, frame_events=frame_events)
            assert len(load_trace(path)) == len(trace)

    def test_multiple_passes(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        reader = open_trace(path)
        first = [e.seq for e in reader.events()]
        second = [e.seq for e in reader.events()]
        assert first == second == [e.seq for e in trace.events]

    @pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
    def test_suite_program_round_trips(self, case, tmp_path):
        recorded = run_program(case.build(), record_trace=True).trace
        for frame_events in (7, 4096):
            path = str(tmp_path / f"t{frame_events}.trc")
            dump_trace_columnar(recorded, path, frame_events=frame_events)
            loaded = load_trace(path)
            assert event_rows(loaded.events) == event_rows(recorded.events)
            assert [loaded.dpst.parent(n) for n in loaded.dpst.nodes()] == [
                recorded.dpst.parent(n) for n in recorded.dpst.nodes()
            ]


class TestWriter:
    def test_closed_writer_rejects_events(self, trace, tmp_path):
        writer = ColumnarTraceWriter(str(tmp_path / "t.trc"))
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(TraceError):
            writer.write(trace.events[0])

    def test_bad_frame_events(self, tmp_path):
        for frame_events in (0, MAX_FRAME_EVENTS + 1):
            with pytest.raises(TraceError, match="frame_events"):
                ColumnarTraceWriter(
                    str(tmp_path / "t.trc"), frame_events=frame_events
                )
        assert not os.listdir(tmp_path)  # refused before opening a file

    def test_unknown_event_type_rejected(self, tmp_path):
        path = str(tmp_path / "t.trc")
        with ColumnarTraceWriter(path) as writer:
            with pytest.raises(TraceError):
                writer.write(object())
            writer.close()

    def test_unserializable_location_rejected_eagerly(self, tmp_path):
        writer = ColumnarTraceWriter(str(tmp_path / "t.trc"))
        with pytest.raises(TraceError):
            writer.write(MemoryEvent(0, 0, 0, {"not": "hashable-loc"}, "read", ()))
        writer.discard()

    def test_publish_is_atomic(self, trace, tmp_path):
        # Nothing appears at the target path until close(); the temp
        # sibling disappears after publication.
        path = str(tmp_path / "t.trc")
        writer = ColumnarTraceWriter(path, dpst=trace.dpst)
        writer.write_all(trace.events)
        assert not os.path.exists(path)
        assert any(n.startswith("t.trc.tmp.") for n in os.listdir(tmp_path))
        writer.close()
        assert os.path.exists(path)
        assert os.listdir(tmp_path) == ["t.trc"]

    def test_context_manager_discards_on_error(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        with pytest.raises(RuntimeError):
            with ColumnarTraceWriter(path) as writer:
                writer.write_all(trace.events)
                raise RuntimeError("recording failed")
        assert os.listdir(tmp_path) == []  # no trace, no temp litter

    def test_discard_is_idempotent(self, tmp_path):
        writer = ColumnarTraceWriter(str(tmp_path / "t.trc"))
        writer.discard()
        writer.discard()
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("frame_events", [1, 7, 4096])
    def test_write_and_write_all_give_identical_files(
        self, frame_events, tmp_path
    ):
        recorded = long_run().trace
        events = recorded.events
        assert len(events) > 4096
        for boundary in (100, 4096):
            window = events[boundary - 100:boundary + 100]
            assert {type(e) for e in window} == set(EVENT_KINDS)
        one = str(tmp_path / "one.trc")
        whole = str(tmp_path / "whole.trc")
        chunked = str(tmp_path / "chunked.trc")
        with ColumnarTraceWriter(
            one, dpst=recorded.dpst, frame_events=frame_events
        ) as writer:
            for event in events:
                writer.write(event)
        with ColumnarTraceWriter(
            whole, dpst=recorded.dpst, frame_events=frame_events
        ) as writer:
            writer.write_all(events)
        with ColumnarTraceWriter(
            chunked, dpst=recorded.dpst, frame_events=frame_events
        ) as writer:
            for start in range(0, len(events), 5):  # frames end mid-chunk
                writer.write_all(iter(events[start:start + 5]))
                assert writer.count == min(start + 5, len(events))
        data = open(one, "rb").read()
        assert open(whole, "rb").read() == data
        assert open(chunked, "rb").read() == data
        assert event_rows(load_trace(one).events) == event_rows(events)

    @pytest.mark.parametrize("frame_events", [1, 4096])
    @pytest.mark.parametrize(
        "event, column",
        [
            (MemoryEvent(0, 2**31, 0, "x", "read", ()), "f0"),
            (MemoryEvent(2**63, 0, 0, "x", "read", ()), "seq"),
            (SyncEvent(0, 0, -(2**31) - 1), "f1"),
        ],
    )
    def test_out_of_range_field_fails_cleanly(
        self, event, column, frame_events, tmp_path
    ):
        # The value is caught when its frame is packed -- mid-stream for
        # one-event frames, in close() inside __exit__ otherwise -- and
        # either way nothing is published and no temporary file remains.
        path = str(tmp_path / "t.trc")
        with pytest.raises(TraceError) as err:
            with ColumnarTraceWriter(path, frame_events=frame_events) as writer:
                writer.write(MemoryEvent(0, 0, 0, "x", "write", ()))
                writer.write(event)
        assert path in str(err.value)
        assert repr(column) in str(err.value)
        assert os.listdir(tmp_path) == []

    def test_failed_close_discards(self, tmp_path):
        path = str(tmp_path / "t.trc")
        writer = ColumnarTraceWriter(path)
        writer.write(MemoryEvent(0, 0, 0, "x", "read", ()))
        writer.write(MemoryEvent(1, 0, 2**40, "x", "read", ()))
        with pytest.raises(TraceError):
            writer.close()
        assert os.listdir(tmp_path) == []
        writer.close()  # already discarded: a no-op
        with pytest.raises(TraceError):
            writer.write(MemoryEvent(2, 0, 0, "x", "read", ()))


class TestPinnedBytes:
    """Trace bytes pinned by SHA-256: a writer change cannot move the
    format unnoticed.

    Uncompressed v3 files and v2 files are determined by the events
    alone; compressed v3 frames also depend on the zlib level, so they
    are not pinned.  If the runtime's event stream for
    :func:`recorded_run` or the format changes on purpose, re-pin.  The
    v3 digests last moved when the footer stopped storing shard keys
    (``"location_sk"``): each file is the earlier writer's with that key
    dropped from the footer.
    """

    def digest(self, path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    def test_uncompressed_v3(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path, compress=False)
        assert self.digest(path) == (
            "748b98d22364e0f6569e26103b8596c6513be1b33eb1ea8fef8d64496db197a9"
        )

    def test_uncompressed_v3_small_frames(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path, frame_events=7, compress=False)
        assert self.digest(path) == (
            "11c8db59cdcdd624edee4acd8946b65839784f212b01e6c3215bf31f999360a6"
        )

    def test_v2(self, trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace_jsonl(trace, path)
        assert self.digest(path) == (
            "abdf69dc6f419e2aa3fa109af1f1844ae548770fb5a4200d8c66bb7bf602753d"
        )


Cell = collections.namedtuple("Cell", "grid x")


class Color(enum.IntEnum):
    RED = 1


class Name(str, enum.Enum):
    TOTAL = "total"


class Tag(str):
    pass


class Ratio(float):
    pass


#: (location, the value a reader decodes, test id): what a trace holds.
ACCEPTED = [
    ("X", "X", "str"),
    (("grid", 2, 3), ("grid", 2, 3), "tuple"),
    ((("deep", 1), "x"), (("deep", 1), "x"), "nested-tuple"),
    (Cell("g", 3), ("g", 3), "namedtuple"),
    (Color.RED, 1, "IntEnum"),
    (Name.TOTAL, "total", "str-Enum"),
    (Tag("t"), "t", "str-subclass"),
    (Ratio(0.5), 0.5, "float-subclass"),
    ((Cell("g", Color.RED), Name.TOTAL), (("g", 1), "total"), "nested-subclasses"),
]

#: (location, test id): what no trace can hold.
REFUSED = [
    (frozenset(), "frozenset"),
    (object(), "object"),
    (b"x", "bytes"),
    (("a", frozenset()), "frozenset-in-tuple"),
    (Cell("g", object()), "object-in-namedtuple"),
]


class TestLocationTable:
    @pytest.mark.parametrize(
        "location, decoded", [case[:2] for case in ACCEPTED], ids=[case[2] for case in ACCEPTED]
    )
    def test_one_rule_for_every_writer(self, location, decoded):
        # plain_location is the value a reader decodes, exact types and all.
        assert repr(plain_location(location)) == repr(decoded)
        assert repr(encode_location(location)) == repr(encode_location(decoded))
        for tagged in (True, False):
            table = LocationTable(tagged=tagged)
            table.index(location)
            assert repr(table.encoded) == repr(
                [encode_location(decoded) if tagged else decoded]
            )
            # The v2 stamp is the key a reader recomputes from the decoded
            # location; a v3 reader keys its decoded table itself.
            assert table.shard_keys == (
                [location_shard_key(decoded)] if tagged else []
            )

    @pytest.mark.parametrize(
        "location", [case[0] for case in REFUSED], ids=[case[1] for case in REFUSED]
    )
    def test_one_rule_refuses_for_every_writer(self, location):
        for encode in (
            plain_location,
            encode_location,
            LocationTable(tagged=True).index,
            LocationTable(tagged=False).index,
        ):
            with pytest.raises(TraceError, match="unserializable location"):
                encode(location)

    def test_shards_key_the_plain_value(self):
        for jobs in (2, 3, 5):
            for location, decoded, _ in ACCEPTED:
                assert shard_for_location(location, jobs) == (
                    location_shard_key(decoded) % jobs
                )
            # An in-memory trace may hold what no file can.
            for location, _ in REFUSED:
                assert shard_for_location(location, jobs) == (
                    location_shard_key(location) % jobs
                )

    def test_interns_by_repr(self):
        table = LocationTable()
        ids = [table.index(loc) for loc in (1, 1.0, True, 1, ("a", 1))]
        assert ids == [0, 1, 2, 0, 3]
        # repr, because {"v": 1} == {"v": 1.0} == {"v": True}.
        assert [repr(row) for row in table.encoded] == [
            "{'v': 1}", "{'v': 1.0}", "{'v': True}",
            "{'t': [{'v': 'a'}, {'v': 1}]}",
        ]
        assert table.shard_keys == [
            location_shard_key(loc) for loc in (1, 1.0, True, ("a", 1))
        ]

    def test_unserializable_location_leaves_table_unchanged(self):
        for tagged in (True, False):
            table = LocationTable(tagged=tagged)
            table.index("x")
            with pytest.raises(TraceError):
                table.index(("x", object()))
            assert list(table.ids) == ["'x'"]
            assert len(table.encoded) == 1
            assert len(table.shard_keys) == (1 if tagged else 0)


class TestSharding:
    def shards(self, reader, jobs):
        return [
            [e.seq for e in reader.memory_events(shard=s, jobs=jobs)]
            for s in range(jobs)
        ]

    def test_shards_partition_the_memory_events(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        shards = self.shards(open_trace(path), 3)
        merged = sorted(seq for shard in shards for seq in shard)
        assert merged == [e.seq for e in trace.memory_events()]

    def test_v2_and_v3_assign_identical_shards(self, trace, tmp_path):
        # A v3 reader must key each location as the v2 "sk" stamps do,
        # so --jobs N splits a v2 file and its v3 copy alike.
        v2 = str(tmp_path / "t.jsonl")
        v3 = str(tmp_path / "t.trc")
        dump_trace_jsonl(trace, v2)
        dump_trace_columnar(trace, v3)
        for jobs in (1, 2, 4, 7):
            assert self.shards(open_trace(v2), jobs) == self.shards(
                open_trace(v3), jobs
            )

    def test_unsharded_memory_stream(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        streamed = list(open_trace(path).memory_events())
        assert event_rows(streamed) == event_rows(list(trace.memory_events()))


class TestSniffing:
    def test_magic_prefix(self, trace, tmp_path):
        v1 = tmp_path / "t.json"
        v1.write_text('{"version": 1, "events": [], "dpst": null}')
        v1 = str(v1)
        v2 = str(tmp_path / "t.jsonl")
        v3 = str(tmp_path / "t.trc")
        dump_trace(trace, v2, format="jsonl")
        dump_trace(trace, v3, format="columnar")
        assert is_columnar_trace(v3)
        assert not is_columnar_trace(v1)
        assert not is_columnar_trace(v2)
        assert not is_jsonl_trace(v3)

    def test_missing_file_is_not_columnar(self, tmp_path):
        assert not is_columnar_trace(str(tmp_path / "absent.trc"))

    def test_extension_does_not_matter(self, trace, tmp_path):
        path = str(tmp_path / "mislabeled.jsonl")
        dump_trace(trace, path, format="columnar")
        assert is_columnar_trace(path)
        assert open_trace(path).version == 3

    def test_trc_extension_selects_columnar_automatically(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace(trace, path)  # format="auto"
        assert is_columnar_trace(path)


class TestFrontDoor:
    """v3 files flow through the same TraceReader views as v2."""

    def test_reader_delegates(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        reader = open_trace(path)
        assert reader.version == 3
        assert len(reader.dpst) == len(trace.dpst)
        assert len(reader.read()) == len(trace)
        assert len(list(reader.memory_events(shard=0, jobs=1))) == len(
            trace.memory_events()
        )
        assert reader.lines_skipped == 0

    def test_facade_close_reaches_the_v3_reader(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        with open_trace(path) as reader:
            next(reader.events())
        assert reader.closed
        with pytest.raises(TraceError):
            list(reader.events())

    def test_closed_v3_reader_refuses_sharded_streams(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        reader = open_trace(path)
        reader.close()
        with pytest.raises(TraceError):
            list(reader.memory_events(shard=0, jobs=2))


def set_frame(index, offset=None, n=None):
    """A footer edit overriding one frame-index entry's offset or count."""

    def edit(table):
        entry = table["frames"][index]
        if offset is not None:
            entry[0] = offset
        if n is not None:
            entry[1] = n

    return edit


class TestCorruption:
    def dump(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path, frame_events=4)
        return path

    def test_truncated_trailer(self, trace, tmp_path):
        path = self.dump(trace, tmp_path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-4])
        with pytest.raises(TraceError) as err:
            ColumnarTraceReader(path)
        assert "t.trc" in str(err.value)

    def test_magicless_file(self, trace, tmp_path):
        path = str(tmp_path / "bad.trc")
        open(path, "wb").write(b"definitely not a trace")
        with pytest.raises(TraceError):
            ColumnarTraceReader(path)

    def test_header_only_file(self, tmp_path):
        path = str(tmp_path / "torn.trc")
        open(path, "wb").write(COLUMNAR_MAGIC)
        with pytest.raises(TraceError):
            ColumnarTraceReader(path)

    def corrupt_first_frame(self, path):
        reader = ColumnarTraceReader(path)
        offset, _ = reader._frames[0]
        reader.close()
        with open(path, "r+b") as handle:
            handle.seek(offset + struct.calcsize("<BII"))
            handle.write(b"\xff" * 8)  # stomp the compressed payload
        return path

    def test_strict_reader_raises_on_bad_frame(self, trace, tmp_path):
        path = self.corrupt_first_frame(self.dump(trace, tmp_path))
        with pytest.raises(TraceError):
            list(open_trace(path).events())

    def test_lenient_reader_skips_frames_and_counts(self, trace, tmp_path):
        path = self.corrupt_first_frame(self.dump(trace, tmp_path))
        reader = open_trace(path, strict=False)
        events = list(reader.events())
        assert len(events) == len(trace.events) - 4  # one 4-event frame lost
        assert reader.lines_skipped == 4

    def test_lenient_sharded_scan_skips_frames_too(self, trace, tmp_path):
        path = self.corrupt_first_frame(self.dump(trace, tmp_path))
        reader = open_trace(path, strict=False)
        list(reader.memory_events(shard=0, jobs=2))
        assert reader.lines_skipped == 4

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda t: t["plain_locations"].__setitem__(0, {"v": "x"}),
                "malformed plain location",
            ),
            (
                lambda t: t["plain_locations"].__setitem__(0, ["cell", {"v": 0}]),
                "malformed plain location",
            ),
            (lambda t: t.update(plain_locations="ab"), "plain location table is a str"),
            (lambda t: t.update(locations=[{"v": "x"}, {"v": "y"}]), "exactly one of"),
            (lambda t: t.pop("plain_locations"), "exactly one of"),
        ],
        ids=["object-row", "object-in-array", "string-table", "both-keys", "neither-key"],
    )
    def test_malformed_location_table_rejected_at_open(
        self, trace, tmp_path, edit, message
    ):
        path = self.dump(trace, tmp_path)
        rewrite_v3(path, footer=edit)
        for strict in (True, False):
            with pytest.raises(TraceError, match=message) as err:
                ColumnarTraceReader(path, strict=strict)
            assert "malformed footer" in str(err.value)
            assert "t.trc" in str(err.value)

    def replace_only_frame(self, path, payload, n_events=None):
        """Swap the compressed *payload* into *path*, a one-frame file;
        *n_events* overrides the frame's count in its header and in the
        footer's frame index."""
        reader = ColumnarTraceReader(path)
        ((offset, n),) = reader._frames
        reader.close()
        if n_events is not None:
            n = n_events
            rewrite_v3(path, footer=set_frame(0, n=n))
        data = open(path, "rb").read()
        (footer_offset,) = struct.unpack("<Q", data[-16:-8])
        head = data[:offset] + struct.pack("<BII", 1, n, len(payload))
        head += payload
        with open(path, "wb") as handle:
            handle.write(head + data[footer_offset:-16])
            handle.write(struct.pack("<Q", len(head)) + data[-8:])

    def assert_rejected_in_bounded_memory(self, path, message):
        for view in ("events", "memory_events"):
            tracemalloc.start()
            try:
                with pytest.raises(TraceError) as err:
                    list(getattr(open_trace(path), view)())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8_000_000
            assert message in str(err.value)
            assert os.path.basename(path) in str(err.value)

    def test_inflation_bomb_rejected_in_bounded_memory(self, trace, tmp_path):
        # ~200 KB that inflates to 200 MB: the reader must stop one byte
        # past the frame's declared size instead of inflating it all, and
        # a frame that lies about its event count cannot raise that size.
        deflate = zlib.compressobj(9, zlib.DEFLATED, 15, 9, zlib.Z_RLE)
        zeros = bytes(1 << 20)
        bomb = b"".join(deflate.compress(zeros) for _ in range(200))
        bomb += deflate.flush()
        del zeros
        assert len(bomb) < 250_000
        for n_events, message in (
            (None, "inflates past"),
            (2**32 - 1, f"declares {2**32 - 1} events"),
        ):
            path = str(tmp_path / f"bomb-{n_events}.trc")
            dump_trace_columnar(trace, path)
            self.replace_only_frame(path, bomb, n_events)
            self.assert_rejected_in_bounded_memory(path, message)

    def test_huge_payload_len_rejected_before_reading(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        reader = ColumnarTraceReader(path)
        ((offset, _),) = reader._frames
        reader.close()
        with open(path, "r+b") as handle:
            handle.seek(offset + struct.calcsize("<BI"))
            handle.write(struct.pack("<I", 2**32 - 1))
        self.assert_rejected_in_bounded_memory(path, "runs past")
        lenient = open_trace(path, strict=False)
        assert list(lenient.events()) == []
        assert lenient.lines_skipped == len(trace.events)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t["frames"].reverse(), "does not follow"),
            (set_frame(0, offset=3), "lies outside"),
            (set_frame(-1, offset=10**9), "lies outside"),
            (set_frame(0, n=0), "declares 0 events"),
            (lambda t: t.update(events=t["events"] + 1), "events declared"),
        ],
        ids=["unordered", "in-header", "past-footer", "empty", "total"],
    )
    def test_lying_frame_index_rejected_at_open(
        self, trace, tmp_path, edit, message
    ):
        path = self.dump(trace, tmp_path)
        rewrite_v3(path, footer=edit)
        with pytest.raises(TraceError, match=message) as err:
            open_trace(path)
        assert "t.trc" in str(err.value)

    def test_truncated_compressed_stream_rejected(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path, compress=False)
        reader = ColumnarTraceReader(path)
        ((offset, n),) = reader._frames
        with open(path, "rb") as handle:
            columns = reader._frame_payload(handle, offset, n)
        # Every column byte is there, but the stream's checksum is not.
        self.replace_only_frame(path, zlib.compress(columns)[:-4])
        with pytest.raises(TraceError, match="truncated"):
            list(open_trace(path).events())
        assert len(list(open_trace(path, strict=False).events())) == 0


class TestFrameMemory:
    """A pass over a v3 trace holds one frame at a time: each frame's
    payload and column views go before the next frame is read."""

    FRAME = 1024
    PAYLOAD = FRAME * (1 + 8 + 5 * 4)  # type, seq and f0-f4 columns
    #: What inflating one frame allocates besides its output: zlib's
    #: 32 KB window and about 7 KB of state.
    INFLATER = 40 * 1024
    #: The pass's own file buffer, plus half a frame for small objects;
    #: a second frame alive would overrun it.
    SLACK = io.DEFAULT_BUFFER_SIZE + PAYLOAD // 2

    @pytest.fixture(scope="class")
    def events(self):
        return long_run().trace

    def dump(self, events, tmp_path, compress):
        path = str(tmp_path / "frames.trc")
        dump_trace_columnar(
            events, path, frame_events=self.FRAME, compress=compress
        )
        with ColumnarTraceReader(path) as reader:
            assert len(reader._frames) >= 3
        return path

    def pass_peak(self, path, view):
        """Peak traced bytes of one pass of *view* over *path*, above
        what the open reader already holds; the events are dropped."""
        with ColumnarTraceReader(path) as reader:
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in getattr(reader, view)():
                    pass
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

    @pytest.mark.parametrize("view", ["events", "memory_events", "checking_events"])
    def test_uncompressed_pass_holds_one_frame(self, events, tmp_path, view):
        path = self.dump(events, tmp_path, compress=False)
        assert self.pass_peak(path, view) < self.PAYLOAD + self.SLACK

    @pytest.mark.parametrize("view", ["events", "memory_events", "checking_events"])
    def test_compressed_pass_holds_one_inflated_frame(self, events, tmp_path, view):
        """Inflating a frame holds its compressed bytes, its output and
        the inflater; nothing of the previous frame may be alive on top
        of that."""
        path = self.dump(events, tmp_path, compress=True)
        with ColumnarTraceReader(path) as reader:
            offsets = [offset for offset, _ in reader._frames] + [None]
        compressed = max(
            end - start for start, end in zip(offsets, offsets[1:]) if end
        )
        bound = compressed + self.PAYLOAD + self.INFLATER + self.SLACK
        assert self.pass_peak(path, view) < bound


def racing_on_a():
    """Two tasks racing on "A", then an access to "B": tables ['A', 'B']."""

    def rmw(ctx):
        ctx.write("A", ctx.read("A") + 1)

    def main(ctx):
        ctx.write("A", 0)
        ctx.spawn(rmw)
        ctx.spawn(rmw)
        ctx.sync()
        ctx.write("B", 1)

    return run_program(TaskProgram(main), record_trace=True).trace


class TestNegativeTableIds:
    """Column ids are signed, and a negative one would index a footer
    table from its end: -1 as "A"'s location id silently reported "B"."""

    COLUMNS = {"location": 2, "lockset": 4}

    def patched(self, tmp_path, column):
        """An uncompressed one-frame trace whose accesses to "A" carry -1
        in *column*; returns the path, the frame offset and the count."""
        path = str(tmp_path / "neg.trc")
        dump_trace_columnar(racing_on_a(), path, compress=False)
        reader = ColumnarTraceReader(path)
        assert reader._locations == ["A", "B"]
        ((offset, n),) = reader._frames
        with open(path, "rb") as handle:
            payload = reader._frame_payload(handle, offset, n)
        reader.close()
        base = 9 * n
        locations = struct.unpack_from(f"<{n}i", payload, base + 2 * 4 * n)
        rows = [
            i for i in range(n) if payload[i] == 4 and locations[i] == 0
        ]
        start = offset + struct.calcsize("<BII") + base + self.COLUMNS[column] * 4 * n
        with open(path, "r+b") as handle:
            for i in rows:
                handle.seek(start + 4 * i)
                handle.write(struct.pack("<i", -1))
        return path, offset, len(rows)

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    def test_strict_raises_naming_path_and_offset(self, tmp_path, column):
        from repro import CheckSession

        path, offset, _ = self.patched(tmp_path, column)
        checks = [
            lambda: CheckSession(path).check(),
            lambda: list(open_trace(path).events()),
            lambda: list(open_trace(path).memory_events()),
        ] + [
            lambda k=k: list(open_trace(path).checking_events(shard=k, jobs=2))
            for k in range(2)
        ]
        for check in checks:
            with pytest.raises(TraceError) as err:
                check()
            assert "neg.trc" in str(err.value)
            assert f"offset {offset}" in str(err.value)

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    def test_lenient_skips_and_counts(self, tmp_path, column):
        from repro import CheckSession

        path, _, patched = self.patched(tmp_path, column)
        assert patched == 5  # the initial write and two RMWs
        session = CheckSession(path, strict=False)
        assert session.check().locations() == []  # never "B"
        assert session.lines_skipped == patched
        for view in ("events", "memory_events", "checking_events"):
            reader = open_trace(path, strict=False)
            events = list(getattr(reader, view)())
            assert all(getattr(e, "location", "B") == "B" for e in events)
            assert reader.lines_skipped == patched

    def test_negative_lock_id_in_lockset_table_rejected(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)

        def edit(table):
            table["locksets"][-1] = [-1]

        rewrite_v3(path, footer=edit)
        with pytest.raises(TraceError, match="negative lock id") as err:
            open_trace(path)
        assert "t.trc" in str(err.value)

    def test_negative_lock_id_rejected(self, tmp_path):
        path = str(tmp_path / "lock.trc")
        dump_trace_columnar(recorded_run().trace, path, compress=False)
        reader = ColumnarTraceReader(path)
        ((offset, n),) = reader._frames
        with open(path, "rb") as handle:
            payload = reader._frame_payload(handle, offset, n)
        reader.close()
        first_acquire = payload[:n].index(5)
        with open(path, "r+b") as handle:
            handle.seek(
                offset + struct.calcsize("<BII") + 9 * n + 2 * 4 * n
                + 4 * first_acquire
            )
            handle.write(struct.pack("<i", -1))
        with pytest.raises(TraceError, match=f"offset {offset}"):
            list(open_trace(path).events())
        lenient = open_trace(path, strict=False)
        assert len(list(lenient.events())) == len(recorded_run().trace.events) - 1
        assert lenient.lines_skipped == 1


class TestStreamingLenientCounting:
    """Streaming must not disturb the skipped-frame accounting.

    The jobs>1 pipeline counts skipped lines on shard 0 only (every
    worker re-scans the whole file, so summing would multiply the
    count); a jobs=1 streaming check counts the reader's delta directly.
    Both paths must land on the same ``trace.lines_skipped`` total --
    and on the same report, since both lost the same frame.
    """

    def damaged(self, trace, tmp_path):
        helper = TestCorruption()
        return helper.corrupt_first_frame(helper.dump(trace, tmp_path))

    def checked(self, path, jobs):
        from repro import CheckSession
        from repro.obs import MetricsRecorder

        recorder = MetricsRecorder()
        session = CheckSession(path, jobs=jobs, recorder=recorder, strict=False)
        report = session.check(streaming=True, window=1)
        return report, recorder.snapshot().counters

    def test_lines_skipped_equal_across_job_counts(self, trace, tmp_path):
        from repro.report import normalize_report

        path = self.damaged(trace, tmp_path)
        report_one, counters_one = self.checked(path, jobs=1)
        report_four, counters_four = self.checked(path, jobs=4)
        assert counters_one["trace.lines_skipped"] == 4
        assert counters_four["trace.lines_skipped"] == 4
        assert normalize_report(report_four) == normalize_report(report_one)


#: Locations of every shape the serializable vocabulary allows: scalars
#: that compare equal but differ in type, and tuples empty and nested.
LOCATION_SHAPES = [
    "X", "", "[", 7, 1, 1.0, True, False, None, 3.5, -0.0, float("inf"),
    (), ((),), ("a", 1), ("a", True), ("grid", 2, 3), (("deep", 1), "x"),
]


def shapes_trace():
    """One access to each of :data:`LOCATION_SHAPES`, then a repeat."""
    base = recorded_run().trace
    access = next(iter(base.memory_events()))
    locations = LOCATION_SHAPES + LOCATION_SHAPES[::-1]
    return Trace(
        [
            dataclasses.replace(access, seq=seq, location=location)
            for seq, location in enumerate(locations)
        ],
        dpst=base.dpst,
    )


class TestFooterLayouts:
    """The footer stores locations as plain JSON; a file whose footer
    holds the tagged rows of earlier writers still reads."""

    def test_plain_table_round_trips_every_shape(self, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(shapes_trace(), path)
        table = footer_table(path)
        assert "locations" not in table
        # Each distinct location once, a scalar as itself and a tuple as
        # an array.
        assert json.dumps(table["plain_locations"]) == json.dumps(LOCATION_SHAPES)
        read = [e.location for e in open_trace(path).memory_events()]
        assert [repr(location) for location in read] == [
            repr(location) for location in LOCATION_SHAPES + LOCATION_SHAPES[::-1]
        ]

    def test_location_nested_600_deep_round_trips(self, tmp_path):
        # Writer and reader each spend one frame per level of nesting, so
        # what one accepts the other reads back.
        location = "x"
        for _ in range(600):
            location = (location,)
        access = next(iter(recorded_run().trace.memory_events()))
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(
            Trace([dataclasses.replace(access, location=location)]), path
        )
        (read,) = open_trace(path).memory_events()
        assert read.location == location

    @pytest.mark.parametrize("frame_events", [7, 4096])
    def test_tagged_table_reads_the_same_events(self, tmp_path, frame_events):
        plain = str(tmp_path / "plain.trc")
        tagged = str(tmp_path / "tagged.trc")
        for path in (plain, tagged):
            dump_trace_columnar(shapes_trace(), path, frame_events=frame_events)
        rewrite_to_tagged(tagged)
        assert "plain_locations" not in footer_table(tagged)
        assert repr(event_rows(load_trace(tagged).events)) == repr(
            event_rows(load_trace(plain).events)
        )
        for jobs in (2, 3):
            for shard in range(jobs):
                assert repr(list(open_trace(tagged).checking_events(shard, jobs))) == repr(
                    list(open_trace(plain).checking_events(shard, jobs))
                )

    @pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
    def test_tagged_table_gives_the_same_report(self, tmp_path, case):
        trace = run_program(case.build(), record_trace=True).trace
        plain = str(tmp_path / "plain.trc")
        tagged = str(tmp_path / "tagged.trc")
        for path in (plain, tagged):
            dump_trace_columnar(trace, path)
        rewrite_to_tagged(tagged)
        assert CheckSession(tagged).check().describe() == (
            CheckSession(plain).check().describe()
        )


class TestDumpTraceDispatch:
    def test_explicit_format(self, trace, tmp_path):
        path = str(tmp_path / "t.dat")
        dump_trace(trace, path, format="columnar")
        assert is_columnar_trace(path)
        assert len(load_trace(path)) == len(trace)

    def test_v3_file_is_binary_not_json(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        with pytest.raises(ValueError):
            json.loads(open(path, "rb").read().decode("utf-8", "replace"))
