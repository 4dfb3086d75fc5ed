"""Trace serialization round-trips and format guards."""

import json
import os

import pytest

from repro.checker import OptAtomicityChecker
from repro.dpst import ArrayDPST, NodeKind
from repro.errors import TraceError
from repro.runtime import TaskProgram, run_program
from repro.session import CheckSession
from repro.trace.columnar import ColumnarTraceReader, ColumnarTraceWriter
from repro.trace.serialize import (
    JsonlTraceReader,
    TraceReader,
    TraceWriter,
    decode_location,
    dpst_from_dict,
    dpst_to_dict,
    dump_trace,
    encode_location,
    event_from_dict,
    event_to_dict,
    load_trace,
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


class TestLocationEncoding:
    @pytest.mark.parametrize(
        "location",
        ["X", 7, 3.5, None, True, ("a", 1), ("grid", 2, 3), (("deep", 1), "x")],
    )
    def test_roundtrip(self, location):
        assert decode_location(encode_location(location)) == location

    def test_tuple_stays_tuple(self):
        decoded = decode_location(encode_location(("a", 1)))
        assert isinstance(decoded, tuple)

    def test_unserializable_rejected(self):
        with pytest.raises(TraceError):
            encode_location(object())

    def test_malformed_rejected(self):
        with pytest.raises(TraceError):
            decode_location({"bogus": 1})


class TestDpstRoundtrip:
    def test_structure_preserved(self):
        result = recorded_run()
        rebuilt = dpst_from_dict(dpst_to_dict(result.dpst))
        assert len(rebuilt) == len(result.dpst)
        for node in result.dpst.nodes():
            assert rebuilt.kind(node) == result.dpst.kind(node)
            assert rebuilt.parent(node) == result.dpst.parent(node)
            assert rebuilt.sibling_rank(node) == result.dpst.sibling_rank(node)

    def test_bad_root_rejected(self):
        with pytest.raises(TraceError):
            dpst_from_dict({"layout": "array", "kinds": [0], "parents": [-1]})

    def test_one_pass_build_matches_node_by_node(self):
        # from_arrays must leave the tree add_node would: same kinds (the
        # NodeKind members themselves), depths, ranks, and child counts,
        # so the rebuilt tree keeps growing the same way.
        data = dpst_to_dict(recorded_run().dpst)
        rebuilt = dpst_from_dict(data)
        grown = ArrayDPST()
        for kind, parent in zip(data["kinds"][1:], data["parents"][1:]):
            grown.add_node(parent, NodeKind(kind))
        rebuilt.validate()
        internal = [n for n in grown.nodes() if not grown.is_step(n)]
        for tree in (rebuilt, grown):
            for parent in internal:
                tree.add_node(parent, NodeKind.STEP)
        assert len(rebuilt) == len(grown)
        for node in grown.nodes():
            assert rebuilt.kind(node) is grown.kind(node)
            assert rebuilt.parent(node) == grown.parent(node)
            assert rebuilt.depth(node) == grown.depth(node)
            assert rebuilt.sibling_rank(node) == grown.sibling_rank(node)

    @pytest.mark.parametrize(
        "kinds, parents, message",
        [
            ([2, 1, True], [-1, 0, 1], "node 2 has kind True"),
            ([2, 1.0], [-1, 0], "node 1 has kind 1.0"),
            ([2, 3], [-1, 0], "node 1 has kind 3"),
            ([2.0], [-1], "finish root"),
            ([2], [5], "finish root"),
            ([2], [True], "finish root"),
            ([2, 2, 0], [-1, 0, True], "unknown parent node id True"),
            ([2, 0, 0], [-1, 0, 1], "child of step node 1"),
        ],
    )
    def test_typed_arrays(self, kinds, parents, message):
        with pytest.raises(TraceError, match=message):
            dpst_from_dict({"kinds": kinds, "parents": parents})


class TestEventRoundtrip:
    def test_all_events_roundtrip(self):
        result = recorded_run()
        for event in result.recorder.events:
            clone = event_from_dict(event_to_dict(event))
            assert clone == event

    def test_unknown_type_rejected(self):
        with pytest.raises(TraceError):
            event_from_dict({"type": "MysteryEvent"})


class TestTraceRoundtrip:
    def test_dict_roundtrip_is_json_safe(self):
        result = recorded_run()
        trace = result.trace
        rows = json.loads(json.dumps([event_to_dict(e) for e in trace.events]))
        assert [event_from_dict(row) for row in rows] == list(trace.events)
        tree = dpst_from_dict(json.loads(json.dumps(dpst_to_dict(trace.dpst))))
        assert len(tree) == len(trace.dpst)

    def test_file_roundtrip(self, tmp_path):
        result = recorded_run()
        path = str(tmp_path / "trace.json")
        dump_trace(result.trace, path)
        loaded = load_trace(path)
        assert [e.seq for e in loaded.memory_events()] == [
            e.seq for e in result.trace.memory_events()
        ]

    def test_replay_after_roundtrip_same_verdict(self, tmp_path):
        result = recorded_run()
        path = str(tmp_path / "trace.json")
        dump_trace(result.trace, path)
        loaded = load_trace(path)
        original = CheckSession(
            result.trace, checker=OptAtomicityChecker()
        ).check()
        replayed = CheckSession(loaded, checker=OptAtomicityChecker()).check()
        assert set(replayed.locations()) == set(original.locations())

    def test_version_guard(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(V1_TRACE)
        with pytest.raises(TraceError, match="old.json"):
            load_trace(str(path))


class TestReaderClasses:
    """One reader class per format under one :class:`TraceReader` base,
    and one crash-safe publication for both writers."""

    @pytest.mark.parametrize(
        "fmt, reader_class, writer_class",
        [
            ("jsonl", JsonlTraceReader, TraceWriter),
            ("columnar", ColumnarTraceReader, ColumnarTraceWriter),
        ],
        ids=["v2", "v3"],
    )
    def test_one_lifecycle_for_both_formats(
        self, tmp_path, fmt, reader_class, writer_class
    ):
        trace = recorded_run().trace
        # open_trace picks the class from the file, whatever its name.
        for name in ("t.jsonl", "t.trc", "t.dat"):
            path = str(tmp_path / name)
            dump_trace(trace, path, format=fmt)
            reader = open_trace(path)
            assert type(reader) is reader_class
            assert isinstance(reader, TraceReader)
        # close() releases the handle of an abandoned pass ...
        abandoned = reader.events()
        next(abandoned)
        (handle,) = reader._live_handles
        reader.close()
        assert handle.closed and not reader._live_handles
        # ... and a pass started after it raises.
        for view in (
            reader.events,
            reader.memory_events,
            reader.checking_events,
            lambda: reader.checking_events(shard=1, jobs=2),
        ):
            with pytest.raises(TraceError, match="closed"):
                next(view())
        # A writer whose with body raises leaves neither the file nor a
        # temporary sibling.
        out = tmp_path / "out"
        out.mkdir()
        with pytest.raises(RuntimeError):
            with writer_class(str(out / "t"), dpst=trace.dpst) as writer:
                writer.write_all(trace.events)
                assert os.listdir(out)
                raise RuntimeError("recording failed")
        assert os.listdir(out) == []

    def test_base_class_names_open_trace(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace(recorded_run().trace, path)
        with pytest.raises(TypeError, match=r"open_trace\(path"):
            TraceReader(path)
