"""Damaged trace files end in a ``TraceError`` naming the file, or in a
counted lenient skip -- never in a bare ``ValueError``/``IndexError``
traceback or a silently wrong verdict.

Two kinds of damage, each on v2 (JSONL) and v3 (columnar) files:

* a DPST header whose arrays do not describe a tree;
* a memory access the DPST cannot place (a step outside ``[0, nodes)``),
  and on v2 an access of unknown type.

v2 alone also spells out each field, so a line may be valid JSON but not
an event object, or a memory line may hold a field of the wrong type.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CheckSession
from repro.errors import TraceError
from repro.obs import MetricsRecorder
from repro.runtime import TaskProgram, run_program
from repro.runtime.events import MemoryEvent
from repro.trace import columnar, serialize
from repro.trace.serialize import dump_trace, open_trace
from repro.trace.trace import Trace

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")

#: File name per trace format; ``dump_trace`` picks the format by suffix.
FORMATS = {"v2": "t.jsonl", "v3": "t.trc"}


def buggy(ctx):
    """Two parallel read-modify-writes of ``X``: one violation."""

    def rmw(inner):
        value = inner.read("X")
        inner.write("X", value + 1)

    ctx.spawn(rmw)
    ctx.spawn(rmw)
    ctx.sync()


def recorded() -> Trace:
    return run_program(TaskProgram(buggy), record_trace=True).trace


def with_first_access_step(trace: Trace, step: int) -> Trace:
    """*trace* with its first memory access moved to *step*."""
    events = list(trace.events)
    index = next(i for i, e in enumerate(events) if isinstance(e, MemoryEvent))
    events[index] = dataclasses.replace(events[index], step=step)
    return Trace(events, dpst=trace.dpst)


def run_cli(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, timeout=120, cwd=cwd, env=env,
    )


def assert_one_error_line(completed, name):
    assert completed.returncode == 2, completed.stderr
    assert "Traceback" not in completed.stderr
    lines = completed.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("repro: error: ")
    assert name in lines[0]


def _replace(data, key, value):
    damaged = dict(data)
    damaged[key] = value
    return damaged


#: How each test damages the header's DPST arrays.
HEADER_DAMAGE = {
    "kind_9": lambda d: _replace(d, "kinds", d["kinds"][:1] + [9] + d["kinds"][2:]),
    "parents_shorter": lambda d: _replace(d, "parents", d["parents"][:-1]),
    "kinds_missing": lambda d: {k: v for k, v in d.items() if k != "kinds"},
    "kinds_not_a_list": lambda d: _replace(d, "kinds", 9),
    "parent_past_the_tree": lambda d: _replace(
        d, "parents", d["parents"][:-1] + [len(d["parents"]) + 7]
    ),
}


def dump_with_damaged_header(tmp_path, monkeypatch, fmt, damage):
    path = str(tmp_path / FORMATS[fmt])
    honest = serialize.dpst_to_dict

    def damaged(tree):
        return HEADER_DAMAGE[damage](honest(tree))

    with monkeypatch.context() as patch:
        patch.setattr(serialize, "dpst_to_dict", damaged)
        patch.setattr(columnar, "dpst_to_dict", damaged)
        dump_trace(recorded(), path)
    return path


class TestDamagedDPSTHeader:
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @pytest.mark.parametrize("damage", sorted(HEADER_DAMAGE))
    def test_trace_error_names_the_file(self, tmp_path, monkeypatch, fmt, damage):
        path = dump_with_damaged_header(tmp_path, monkeypatch, fmt, damage)
        # The header must always decode: lenient mode refuses it too.
        for strict in (True, False):
            with pytest.raises(TraceError, match="bad DPST in the header") as err:
                open_trace(path, strict=strict)
            assert FORMATS[fmt] in str(err.value)

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_cli_exits_2_with_one_line(self, tmp_path, monkeypatch, fmt):
        dump_with_damaged_header(tmp_path, monkeypatch, fmt, "kind_9")
        completed = run_cli("check-trace", FORMATS[fmt], cwd=tmp_path)
        assert_one_error_line(completed, FORMATS[fmt])


class TestUnplaceableAccess:
    """A step outside the DPST's nodes cannot be an access's step."""

    def dump(self, tmp_path, fmt, step):
        path = str(tmp_path / FORMATS[fmt])
        dump_trace(with_first_access_step(recorded(), step), path)
        return path

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @pytest.mark.parametrize("step", [999, -5])
    def test_strict_raises_naming_the_file(self, tmp_path, fmt, step):
        path = self.dump(tmp_path, fmt, step)
        with pytest.raises(TraceError) as err:
            CheckSession(path).check()
        message = str(err.value)
        assert FORMATS[fmt] in message
        assert f"step {step} outside the DPST's" in message
        if fmt == "v3":
            assert "offset" in message
        with pytest.raises(TraceError, match=FORMATS[fmt]):
            list(open_trace(path).events())

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @pytest.mark.parametrize("step", [999, -5])
    def test_lenient_counts_the_event_and_checks_the_rest(self, tmp_path, fmt, step):
        path = self.dump(tmp_path, fmt, step)
        session = CheckSession(path, strict=False)
        report = session.check()
        assert session.lines_skipped == 1
        # The other task's write still interleaves the second RMW.
        assert report.patterns() == ["RWW"]
        for view in ("events", "memory_events", "checking_events"):
            reader = open_trace(path, strict=False)
            kept = [e for e in getattr(reader, view)() if isinstance(e, MemoryEvent)]
            assert len(kept) == 3
            assert reader.lines_skipped == 1

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_cli_exits_2_strict_and_skips_lenient(self, tmp_path, fmt):
        self.dump(tmp_path, fmt, 999)
        completed = run_cli("check-trace", FORMATS[fmt], cwd=tmp_path)
        assert_one_error_line(completed, FORMATS[fmt])
        lenient = run_cli("check-trace", FORMATS[fmt], "--lenient", cwd=tmp_path)
        assert lenient.returncode == 1, lenient.stderr
        assert "skipped 1" in lenient.stdout

    def test_in_range_steps_pass(self, tmp_path):
        # The last node is a legal bound; what is not a step node is left
        # to Trace.validate().
        trace = recorded()
        last = len(trace.dpst) - 1
        for fmt in FORMATS:
            path = str(tmp_path / FORMATS[fmt])
            dump_trace(with_first_access_step(trace, last), path)
            assert len(list(open_trace(path).memory_events())) == 4


class TestUnknownAccessType:
    """v2 names the access type; one it does not know is refused."""

    def dump(self, tmp_path):
        path = tmp_path / "t.jsonl"
        dump_trace(recorded(), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if '"write"' in line)
        lines[index] = lines[index].replace('"write"', '"exec"')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_strict_raises_naming_the_file(self, tmp_path):
        path = self.dump(tmp_path)
        with pytest.raises(TraceError, match="unknown access type 'exec'") as err:
            CheckSession(path).check()
        assert "t.jsonl" in str(err.value)

    def test_lenient_counts_the_event(self, tmp_path):
        path = self.dump(tmp_path)
        session = CheckSession(path, strict=False)
        report = session.check()
        assert session.lines_skipped == 1
        # Never reported as a read pattern: the event is gone.
        assert "exec" not in report.describe()


#: v2 event lines no writer produces, each put in place of the first
#: memory line (its row given): the line, and what the strict error says.
BAD_LINES = {
    # Valid JSON, but not an event object.
    "int": (lambda row: "5", "expected an event object, not int"),
    "list": (lambda row: "[1, 2]", "expected an event object, not list"),
    "null": (lambda row: "null", "expected an event object, not NoneType"),
    # Nested past the interpreter's recursion limit.
    "deep": (
        lambda row: "[" * 100_000 + "]" * 100_000, "maximum recursion depth",
    ),
    # A memory line with a field of the wrong type.
    "step_float": (
        lambda row: json.dumps({**row, "step": 3.0}), "step 3.0 is not an int",
    ),
    "step_bool": (
        lambda row: json.dumps({**row, "step": True}), "step True is not an int",
    ),
    "location_list": (
        lambda row: json.dumps({**row, "location": {"v": [1, 2]}}),
        "malformed encoded location",
    ),
    "lockset_string": (
        lambda row: json.dumps({**row, "lockset": "ab"}),
        "lockset 'ab' is not a list",
    ),
}


class TestBadV2Line:
    """A bad line is refused or counted once, never checked: a non-object
    line used to end in an ``AttributeError``, a deep one in a
    ``RecursionError``, a float step in the DPST walk's ``TypeError``, a
    list location as unhashable; a bool step was read as step 1 and a
    string lockset as one lock per character."""

    def dump(self, tmp_path, case):
        path = tmp_path / "t.jsonl"
        dump_trace(recorded(), str(path))
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, line in enumerate(lines) if '"MemoryEvent"' in line)
        lines[index] = BAD_LINES[case][0](json.loads(lines[index]))
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_strict_raises_naming_the_file(self, tmp_path, case):
        path = self.dump(tmp_path, case)
        with pytest.raises(TraceError) as err:
            CheckSession(path).check()
        assert "undecodable event line in" in str(err.value)
        assert "t.jsonl" in str(err.value)
        assert BAD_LINES[case][1] in str(err.value)
        for view in ("events", "memory_events", "checking_events"):
            with pytest.raises(TraceError, match="t.jsonl"):
                list(getattr(open_trace(path), view)())

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_lenient_counts_the_line_once_at_every_job_count(self, tmp_path, case):
        path = self.dump(tmp_path, case)
        for view in ("events", "memory_events", "checking_events"):
            reader = open_trace(path, strict=False)
            kept = [e for e in getattr(reader, view)() if isinstance(e, MemoryEvent)]
            assert len(kept) == 3
            assert reader.lines_skipped == 1
        for jobs in (1, 2, 4):
            recorder = MetricsRecorder()
            session = CheckSession(path, jobs=jobs, recorder=recorder, strict=False)
            assert session.check().patterns() == ["RWW"]
            assert recorder.snapshot().counters["trace.lines_skipped"] == 1

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_cli_exits_2_strict_and_skips_lenient(self, tmp_path, case):
        self.dump(tmp_path, case)
        completed = run_cli("check-trace", "t.jsonl", cwd=tmp_path)
        assert_one_error_line(completed, "t.jsonl")
        lenient = run_cli("check-trace", "t.jsonl", "--lenient", cwd=tmp_path)
        assert lenient.returncode == 1, lenient.stderr
        assert "skipped 1" in lenient.stdout


class TestInvalidUTF8:
    """A byte that is not UTF-8 in an event line used to end in a
    ``UnicodeDecodeError`` traceback, at open when it sat in the first
    text chunk."""

    def dump(self, tmp_path):
        path = tmp_path / "t.jsonl"
        dump_trace(recorded(), str(path))
        data = path.read_bytes().split(b"\n")
        index = next(i for i, line in enumerate(data) if b'"MemoryEvent"' in line)
        data[index] = data[index].replace(b'"X"', b'"\xff"')
        path.write_bytes(b"\n".join(data))
        return str(path)

    def test_strict_raises_naming_the_file(self, tmp_path):
        path = self.dump(tmp_path)
        with pytest.raises(TraceError, match="t.jsonl"):
            CheckSession(path).check()

    def test_cli_exits_2_with_one_line(self, tmp_path):
        self.dump(tmp_path)
        completed = run_cli("check-trace", "t.jsonl", cwd=tmp_path)
        assert_one_error_line(completed, "t.jsonl")

    def test_lenient_replaces_the_byte_alike_at_every_job_count(self, tmp_path):
        path = self.dump(tmp_path)
        for jobs in (1, 2):
            session = CheckSession(path, jobs=jobs, strict=False)
            # The access moved to location U+FFFD; the other three still
            # interleave on X.
            assert session.check().patterns() == ["RWW"]
            assert session.lines_skipped == 0
