"""The columnar (v3) trace format: writer, reader, sniffing, sharding."""

import hashlib
import json
import os
import struct
import tracemalloc
import zlib

import pytest

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
    TraceReader,
    dump_trace,
    dump_trace_jsonl,
    is_jsonl_trace,
    load_trace,
    location_shard_key,
    open_trace,
)
from repro.trace.trace import Trace


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
    return [(type(e).__name__,) + tuple(vars(e).values()) for e in events]


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
    :func:`recorded_run` changes on purpose, re-pin.
    """

    def digest(self, path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    def test_uncompressed_v3(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path, compress=False)
        assert self.digest(path) == (
            "21b946be77dd03e70f9e98d42811be9200640a3e42b14770f774e0805f2b68cc"
        )

    def test_uncompressed_v3_small_frames(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path, frame_events=7, compress=False)
        assert self.digest(path) == (
            "09c172a9be2d19acff250c9dccacd8d4c816ec2a970ac823ab2b5f072b94dea5"
        )

    def test_v2(self, trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace_jsonl(trace, path)
        assert self.digest(path) == (
            "abdf69dc6f419e2aa3fa109af1f1844ae548770fb5a4200d8c66bb7bf602753d"
        )


class TestLocationTable:
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
        table = LocationTable()
        table.index("x")
        with pytest.raises(TraceError):
            table.index(("x", object()))
        assert list(table.ids) == ["'x'"]
        assert len(table.encoded) == len(table.shard_keys) == 1


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
        # The footer shard keys must agree with the v2 "sk" stamps --
        # a checkpointed v2 run must be resumable against a v3 copy.
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
        assert TraceReader(path).version == 3

    def test_trc_extension_selects_columnar_automatically(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace(trace, path)  # format="auto"
        assert is_columnar_trace(path)


class TestFrontDoor:
    """v3 files flow through the same TraceReader facade as v1/v2."""

    def test_reader_delegates(self, trace, tmp_path):
        path = str(tmp_path / "t.trc")
        dump_trace_columnar(trace, path)
        reader = TraceReader(path)
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

    def rewrite_footer(self, path, edit):
        """Pass the footer table of *path* through *edit* in place."""
        data = open(path, "rb").read()
        (footer_offset,) = struct.unpack("<Q", data[-16:-8])
        (length,) = struct.unpack_from("<I", data, footer_offset)
        table = json.loads(data[footer_offset + 4 : footer_offset + 4 + length])
        edit(table)
        raw = json.dumps(table, sort_keys=True).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(data[:footer_offset] + struct.pack("<I", len(raw)))
            handle.write(raw + data[-16:])

    def replace_only_frame(self, path, payload, n_events=None):
        """Swap the compressed *payload* into *path*, a one-frame file;
        *n_events* overrides the frame's count in its header and in the
        footer's frame index."""
        reader = ColumnarTraceReader(path)
        ((offset, n),) = reader._frames
        reader.close()
        if n_events is not None:
            n = n_events
            self.rewrite_footer(path, set_frame(0, n=n))
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
        self.rewrite_footer(path, edit)
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
