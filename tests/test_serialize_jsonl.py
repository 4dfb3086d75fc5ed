"""The streaming JSONL (v2) trace format: writer, reader, sniffing."""

import json

import pytest

from repro.errors import TraceError
from repro.runtime import TaskProgram, run_program
from repro.runtime.events import MemoryEvent
from repro.trace.serialize import (
    LocationTable,
    TraceWriter,
    decode_location,
    dump_trace,
    dump_trace_jsonl,
    encode_location,
    is_jsonl_trace,
    load_trace,
    location_shard_key,
    open_trace,
)

#: The retired v1 monolithic-JSON layout, which readers now refuse.
V1_TRACE = '{"version": 1, "events": [], "dpst": null}'


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


class TestRoundTrip:
    def test_events_and_dpst_survive(self, trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(trace, path)
        loaded = load_trace(path)
        assert [type(e).__name__ for e in loaded.events] == [
            type(e).__name__ for e in trace.events
        ]
        assert [e.seq for e in loaded.events] == [e.seq for e in trace.events]
        assert len(loaded.dpst) == len(trace.dpst)
        loaded.validate()

    def test_one_event_per_line(self, trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(trace, path)
        lines = [l for l in open(path).read().splitlines() if l]
        assert len(lines) == 1 + len(trace.events)  # header + events
        header = json.loads(lines[0])
        assert header["format"] == "repro-trace" and header["version"] == 2

    def test_small_chunk_size_flushes_correctly(self, trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(trace, path, chunk_size=2)
        assert len(load_trace(path)) == len(trace)


class TestTraceWriter:
    def test_incremental_writes_and_count(self, trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with TraceWriter(path, dpst=trace.dpst, chunk_size=3) as writer:
            for event in trace.events:
                writer.write(event)
            assert writer.count == len(trace.events)
        assert len(load_trace(path)) == len(trace)

    def test_closed_writer_rejects_events(self, trace, tmp_path):
        writer = TraceWriter(str(tmp_path / "t.jsonl"))
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(TraceError):
            writer.write(trace.events[0])

    def test_bad_chunk_size(self, tmp_path):
        with pytest.raises(TraceError):
            TraceWriter(str(tmp_path / "t.jsonl"), chunk_size=0)

    def test_dpst_free_trace(self, trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with TraceWriter(path) as writer:
            writer.write_all(trace.events)
        reader = open_trace(path)
        assert reader.dpst is None
        assert len(list(reader.events())) == len(trace.events)


class TestTraceReader:
    def test_streaming_memory_events(self, trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace_jsonl(trace, path)
        reader = open_trace(path)
        streamed = list(reader.memory_events())
        assert all(isinstance(e, MemoryEvent) for e in streamed)
        assert [e.seq for e in streamed] == [
            e.seq for e in trace.memory_events()
        ]

    def test_multiple_passes(self, trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace_jsonl(trace, path)
        reader = open_trace(path)
        first = [e.seq for e in reader.events()]
        second = [e.seq for e in reader.events()]
        assert first == second

    def test_v1_files_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(V1_TRACE)
        with pytest.raises(TraceError, match="t.json") as err:
            open_trace(str(path))
        assert "v1" in str(err.value)

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(TraceError, match="absent.jsonl"):
            open_trace(str(tmp_path / "absent.jsonl"))

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "repro-trace", "version": 99}\n')
        with pytest.raises(TraceError):
            open_trace(str(path))


class TestShardFiltering:
    def shards(self, reader, jobs):
        return [
            [e.seq for e in reader.memory_events(shard=s, jobs=jobs)]
            for s in range(jobs)
        ]

    def test_memory_lines_carry_shard_stamp(self, trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace_jsonl(trace, path)
        for line in open(path).read().splitlines()[1:]:
            row = json.loads(line)
            assert ("sk" in row) == (row["type"] == "MemoryEvent")

    def test_shards_partition_the_memory_events(self, trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace_jsonl(trace, path)
        reader = open_trace(path)
        shards = self.shards(reader, 3)
        merged = sorted(seq for shard in shards for seq in shard)
        assert merged == [e.seq for e in trace.memory_events()]

    def test_stampless_v2_falls_back_to_decoding(self, trace, tmp_path):
        # A v2 file produced without "sk" stamps (e.g. by an external
        # tool) must shard identically, just slower.
        stamped = tmp_path / "stamped.jsonl"
        dump_trace_jsonl(trace, str(stamped))
        stripped = tmp_path / "plain.jsonl"
        lines = stamped.read_text().splitlines()
        rows = [json.loads(l) for l in lines[1:]]
        for row in rows:
            row.pop("sk", None)
        stripped.write_text(
            "\n".join([lines[0]] + [json.dumps(r) for r in rows]) + "\n"
        )
        assert self.shards(open_trace(str(stripped)), 4) == self.shards(
            open_trace(str(stamped)), 4
        )

    def test_decoded_events_do_not_leak_the_stamp(self, trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace_jsonl(trace, path)
        for event in open_trace(path).memory_events():
            assert not hasattr(event, "sk")


class TestFormatSelection:
    def test_sniffing(self, trace, tmp_path):
        v1 = tmp_path / "t.json"
        v1.write_text(V1_TRACE)
        v2 = str(tmp_path / "t.jsonl")
        dump_trace(trace, v2)
        assert not is_jsonl_trace(str(v1))
        assert is_jsonl_trace(v2)

    def test_extension_does_not_fool_the_sniffer(self, trace, tmp_path):
        # A v2 trace under a .json name still loads as v2 and vice versa.
        path = str(tmp_path / "mislabeled.json")
        dump_trace(trace, path, format="jsonl")
        assert is_jsonl_trace(path)
        assert open_trace(path).version == 2
        assert len(load_trace(path)) == len(trace)

    def test_explicit_format_override(self, trace, tmp_path):
        path = str(tmp_path / "t.dat")
        dump_trace(trace, path, format="jsonl")
        assert is_jsonl_trace(path)

    def test_unknown_format_rejected(self, trace, tmp_path):
        with pytest.raises(TraceError):
            dump_trace(trace, str(tmp_path / "t.x"), format="yaml")

    def test_load_trace_handles_both(self, trace, tmp_path):
        for name, format in (("a.jsonl", "jsonl"), ("b.trc", "columnar")):
            path = str(tmp_path / name)
            dump_trace(trace, path, format=format)
            assert len(load_trace(path)) == len(trace)

    def test_auto_writes_jsonl_for_other_paths(self, trace, tmp_path):
        for name in ("t.json", "t.dat", "t"):
            path = str(tmp_path / name)
            dump_trace(trace, path)
            assert is_jsonl_trace(path), name

    def test_json_format_retired(self, trace, tmp_path):
        with pytest.raises(TraceError, match="jsonl"):
            dump_trace(trace, str(tmp_path / "t.json"), format="json")


class TestLenientReader:
    """``strict=False``: undecodable lines are counted and skipped."""

    def dump(self, trace, tmp_path, *extra_lines):
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(trace, path)
        if extra_lines:
            with open(path, "a", encoding="utf-8") as handle:
                for line in extra_lines:
                    handle.write(line)
        return path

    def test_strict_reader_raises_on_garbage(self, trace, tmp_path):
        path = self.dump(trace, tmp_path, "{broken json\n")
        reader = open_trace(path)
        with pytest.raises((TraceError, ValueError)):
            list(reader.events())

    def test_lenient_reader_skips_and_counts(self, trace, tmp_path):
        path = self.dump(
            trace, tmp_path, "{broken json\n", '{"valid": "but not an event"}\n'
        )
        reader = open_trace(path, strict=False)
        events = list(reader.events())
        assert len(events) == len(trace.events)
        assert reader.lines_skipped == 2

    def test_lenient_skips_truncated_tail(self, trace, tmp_path):
        path = self.dump(trace, tmp_path)
        with open(path, "r", encoding="utf-8") as handle:
            content = handle.read()
        # Simulate a crash mid-write: chop the final line in half.
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content[: len(content) - len(content.splitlines()[-1]) // 2 - 1])
        reader = open_trace(path, strict=False)
        events = list(reader.events())
        assert len(events) == len(trace.events) - 1
        assert reader.lines_skipped == 1

    def test_lenient_memory_event_stream(self, trace, tmp_path):
        path = self.dump(trace, tmp_path, "not json at all\n")
        reader = open_trace(path, strict=False)
        memory = list(reader.memory_events())
        assert [e.seq for e in memory] == [
            e.seq for e in trace.memory_events()
        ]
        assert reader.lines_skipped == 1

    def test_lenient_sharded_scan_counts_once_per_pass(self, trace, tmp_path):
        path = self.dump(trace, tmp_path, "garbage\n")
        reader = open_trace(path, strict=False)
        collected = []
        for shard in range(2):
            reader_pass = open_trace(path, strict=False)
            collected.extend(reader_pass.memory_events(shard=shard, jobs=2))
            assert reader_pass.lines_skipped == 1
        assert len(collected) == len(trace.memory_events())


class TestStreamingLenientCounting:
    """Streaming a damaged v2 file counts skips once, at any job count.

    The v2 analogue of the columnar regression: the jobs>1 pipeline
    attributes skipped lines to shard 0 only, the jobs=1 streaming check
    counts the reader's delta, and both must report the same
    ``trace.lines_skipped`` total and the same verdict.
    """

    def damaged(self, trace, tmp_path):
        return TestLenientReader().dump(
            trace, tmp_path, "{broken json\n", '{"valid": "but not an event"}\n'
        )

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
        assert counters_one["trace.lines_skipped"] == 2
        assert counters_four["trace.lines_skipped"] == 2
        assert normalize_report(report_four) == normalize_report(report_one)


class TestStampedLines:
    """At ``jobs>1`` a line's ``"sk"`` stamp routes it undecoded.  A bad
    line stamped for a shard other than 0 is counted by that shard:
    ``trace.lines_skipped`` and the CLI line read 1 at every job count
    (they used to read nothing at ``jobs>1``).
    """

    def damaged(self, trace, tmp_path):
        path = tmp_path / "trace.jsonl"
        dump_trace_jsonl(trace, str(path))
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if '"MemoryEvent"' in line)
        row = json.loads(lines[index])
        row.update(step=999, sk=5)  # shard 1 at jobs 2 and at jobs 4
        lines[index] = json.dumps(row)
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        return str(path)

    def test_only_the_owning_shard_reads_it(self, trace, tmp_path):
        path = self.damaged(trace, tmp_path)
        for shard, skipped in ((0, 0), (1, 1)):
            reader = open_trace(path, strict=False)
            list(reader.checking_events(shard=shard, jobs=2))
            assert reader.lines_skipped == skipped
            assert reader.stamped_lines_skipped == skipped
        reader = open_trace(path, strict=False)
        list(reader.checking_events())
        assert (reader.lines_skipped, reader.stamped_lines_skipped) == (1, 0)

    def test_views_still_filter_a_stamped_line_by_type(self, trace, tmp_path):
        # The writer stamps memory lines only; a stamp on a sync line
        # routes it like any other, but it is no memory event.
        path = tmp_path / "trace.jsonl"
        dump_trace_jsonl(trace, str(path))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "SyncEvent", "seq": 99, "task": 0, '
                         '"finish_node": 0, "sk": 1}\n')
        reader = open_trace(str(path))
        for view in (reader.memory_events, reader.checking_events):
            kinds = {type(e).__name__ for e in view(shard=1, jobs=2)}
            assert kinds <= {"MemoryEvent", "TaskEndEvent"}

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_counted_once_at_every_job_count(self, trace, tmp_path, capsys, jobs):
        from repro import CheckSession
        from repro.cli import main
        from repro.obs import MetricsRecorder

        path = self.damaged(trace, tmp_path)
        recorder = MetricsRecorder()
        CheckSession(path, jobs=jobs, recorder=recorder, strict=False).check()
        assert recorder.snapshot().counters["trace.lines_skipped"] == 1
        main(["check-trace", path, "--lenient", "--jobs", str(jobs)])
        assert "lenient mode: skipped 1 undecodable" in capsys.readouterr().out


class TestSniffingRobustness:
    """Sniffing parses the header, never matches an exact byte rendering."""

    def header_variants(self, trace, tmp_path):
        reference = tmp_path / "ref.jsonl"
        dump_trace_jsonl(trace, str(reference))
        lines = reference.read_text().splitlines()
        header = json.loads(lines[0])
        return header, lines[1:]

    def write(self, tmp_path, name, header_text, body):
        path = tmp_path / name
        path.write_text("\n".join([header_text] + body) + "\n")
        return str(path)

    def test_compact_separators(self, trace, tmp_path):
        header, body = self.header_variants(trace, tmp_path)
        path = self.write(
            tmp_path, "compact.jsonl",
            json.dumps(header, separators=(",", ":")), body,
        )
        assert is_jsonl_trace(path)
        assert len(load_trace(path)) == len(trace)

    def test_reordered_keys(self, trace, tmp_path):
        header, body = self.header_variants(trace, tmp_path)
        reordered = {
            key: header[key]
            for key in sorted(header, reverse=True)  # format key last
        }
        path = self.write(
            tmp_path, "reordered.jsonl", json.dumps(reordered), body
        )
        assert is_jsonl_trace(path)
        assert len(load_trace(path)) == len(trace)

    def test_spaced_and_indented_header(self, trace, tmp_path):
        header, body = self.header_variants(trace, tmp_path)
        spaced = json.dumps(header, separators=(" , ", " : "))
        path = self.write(tmp_path, "spaced.jsonl", spaced, body)
        assert is_jsonl_trace(path)

    def test_leading_whitespace(self, trace, tmp_path):
        header, body = self.header_variants(trace, tmp_path)
        path = self.write(tmp_path, "padded.jsonl", "  " + json.dumps(header), body)
        assert is_jsonl_trace(path)

    def test_json_lookalikes_are_rejected(self, tmp_path):
        cases = {
            "empty.jsonl": "",
            "other.jsonl": '{"format": "not-a-trace", "version": 2}\n',
            "report.jsonl": '{"schema": "repro-report/1"}\n',
            "string.jsonl": '"repro-trace"\n',
            "garbage.jsonl": "{not json\n",
        }
        for name, content in cases.items():
            path = tmp_path / name
            path.write_text(content)
            assert not is_jsonl_trace(str(path)), name

    def test_missing_file(self, tmp_path):
        assert not is_jsonl_trace(str(tmp_path / "absent.jsonl"))


class TestUnparsableFiles:
    """Satellite: broken inputs raise TraceError naming the file, never a
    raw json.JSONDecodeError out of the reader's guts."""

    @pytest.mark.parametrize(
        "name,content",
        [
            ("empty.json", b""),
            ("truncated.json", b'{"events": [{"type": "Mem'),
            ("binary.json", b"\x00\x01\x02\x03 not a trace \xff"),
            ("text.json", b"just some prose, no JSON here\n"),
        ],
    )
    def test_trace_reader_wraps_parse_failures(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(TraceError) as err:
            open_trace(str(path))
        assert name in str(err.value)

    def test_load_trace_wraps_too(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        with pytest.raises(TraceError):
            load_trace(str(path))

    def test_jsonl_with_broken_header_names_the_file(self, tmp_path):
        # Sniffed as v2 by prefix, but the header line is cut short.
        path = tmp_path / "torn.jsonl"
        path.write_text('{"format": "repro-trace", "version": 2, "dp')
        with pytest.raises(TraceError) as err:
            open_trace(str(path))
        assert "torn.jsonl" in str(err.value)


class TestWriterCrashSafety:
    """Satellite: the v2 writer publishes via a temp sibling, so a crash
    mid-recording never leaves a truncated file at the target path."""

    def test_nothing_at_target_until_close(self, trace, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = TraceWriter(path, dpst=trace.dpst)
        writer.write_all(trace.events)
        import os

        assert not os.path.exists(path)
        writer.close()
        assert os.path.exists(path)
        assert os.listdir(tmp_path) == ["t.jsonl"]  # temp sibling gone

    def test_context_manager_discards_on_error(self, trace, tmp_path):
        import os

        path = str(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError):
            with TraceWriter(path, dpst=trace.dpst) as writer:
                writer.write_all(trace.events)
                raise RuntimeError("recording failed")
        assert os.listdir(tmp_path) == []

    def test_bad_chunk_size_leaves_no_file(self, tmp_path):
        import os

        with pytest.raises(TraceError):
            TraceWriter(str(tmp_path / "t.jsonl"), chunk_size=-1)
        assert os.listdir(tmp_path) == []

    def test_discard_is_idempotent(self, tmp_path):
        import os

        writer = TraceWriter(str(tmp_path / "t.jsonl"))
        writer.discard()
        writer.discard()
        assert os.listdir(tmp_path) == []

    def test_failed_close_discards(self, trace, tmp_path):
        import os

        writer = TraceWriter(str(tmp_path / "t.jsonl"), dpst=trace.dpst)
        writer.write_all(trace.events)

        def disk_full(data):
            raise OSError(28, "No space left on device")

        writer._handle.write = disk_full
        with pytest.raises(OSError):
            writer.close()
        assert os.listdir(tmp_path) == []
        writer.close()  # already discarded: a no-op


class TestLocationRoundTrip:
    """Satellite: the location codec and shard key over the full
    vocabulary, including the == / hash collision cases."""

    VOCABULARY = [
        "x", "", 0, 1, -7, 1.0, 0.5, True, False, None,
        ("cell", 3), ("a", ("b", ("c",))), (), ("f", 0.25, None, False),
    ]

    @pytest.mark.parametrize("location", VOCABULARY, ids=repr)
    def test_encode_decode_identity(self, location):
        decoded = decode_location(encode_location(location))
        assert repr(decoded) == repr(location)  # type-exact, not just ==

    def test_shard_key_is_repr_stable(self):
        # The CRC-32 of the repr of the key value, in which a bool or an
        # integral float is its int, inside tuples too.
        import zlib as _zlib

        key_values = {
            "1.0": 1, "True": 1, "False": 0,
            repr(("f", 0.25, None, False)): ("f", 0.25, None, 0),
        }
        for location in self.VOCABULARY:
            value = key_values.get(repr(location), location)
            assert location_shard_key(location) == _zlib.crc32(
                repr(value).encode("utf-8")
            )

    def test_colliding_locations_get_distinct_keys(self):
        # 1 == 1.0 == True under Python equality: one location to the
        # shadow memory and every checker, so one shard key.  The
        # interner still keys them apart, so each round-trips as itself.
        table = LocationTable()
        assert [table.index(loc) for loc in (1, 1.0, True)] == [0, 1, 2]
        assert len(set(table.shard_keys)) == 1
        assert {location_shard_key(loc) for loc in (1, 1.0, True)} == set(
            table.shard_keys
        )
        assert location_shard_key((1, ("a", 2.0))) == location_shard_key(
            (True, ("a", 2))
        )

    def test_shard_key_agrees_across_formats(self, trace, tmp_path):
        # The stamped "sk" value in v2 files is exactly location_shard_key.
        path = str(tmp_path / "t.jsonl")
        dump_trace_jsonl(trace, path)
        for line in open(path).read().splitlines()[1:]:
            row = json.loads(line)
            if row["type"] != "MemoryEvent":
                continue
            location = decode_location(row["location"])
            assert row["sk"] == location_shard_key(location)

    def test_unserializable_location_rejected(self):
        with pytest.raises(TraceError):
            encode_location({"dict": "not allowed"})
        with pytest.raises(TraceError):
            decode_location({"neither": "tag"})


class TestReaderLifecycle:
    """close() / context-manager support (driver error paths)."""

    def test_context_manager_closes(self, trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(trace, path)
        with open_trace(path) as reader:
            assert list(reader.memory_events())
            assert not reader.closed
        assert reader.closed

    def test_closed_reader_refuses_new_streams(self, trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(trace, path)
        reader = open_trace(path)
        reader.close()
        with pytest.raises(TraceError):
            list(reader.events())

    def test_close_is_idempotent(self, trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(trace, path)
        reader = open_trace(path)
        reader.close()
        reader.close()
        assert reader.closed

    def test_close_releases_live_handles(self, trace, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        dump_trace_jsonl(trace, path)
        reader = open_trace(path)
        stream = reader.events()
        next(stream)  # handle now open mid-iteration
        reader.close()
        assert reader.closed
