"""Damaged trace files end in a ``TraceError`` naming the file, or in a
counted lenient skip -- never in a bare ``ValueError``/``IndexError``
traceback or a silently wrong verdict.

Three kinds of damage, each on v2 (JSONL) and v3 (columnar) files:

* a DPST header whose arrays do not describe a tree, or hold a kind or
  parent that is not an int;
* a memory access the DPST cannot place (a step outside ``[0, nodes)``),
  and on v2 an access of unknown type;
* a header (or v3 footer) nested past the interpreter's recursion limit.

v2 alone also spells out each field, so a line may be valid JSON but not
an event object, or a memory line may hold a field of the wrong type, or
a shard-key stamp that is not its location's.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro import CheckSession
from repro.checker.supervisor import WorkerPolicy
from repro.errors import CheckerError, TraceError
from repro.obs import MetricsRecorder
from repro.report import normalize_report
from repro.runtime import TaskProgram, run_program
from repro.runtime.events import MemoryEvent
from repro.trace import columnar, serialize
from repro.trace.serialize import dump_trace, open_trace
from repro.trace.trace import Trace
from tests.v3_files import rewrite_to_older_keys, rewrite_v3

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
    # Equal to a valid value, but not an int: each used to be read as
    # that value (True as ASYNC or as node 1, 2.0 as the finish root).
    "kind_true": lambda d: _replace(d, "kinds", d["kinds"][:1] + [True] + d["kinds"][2:]),
    "kind_float": lambda d: _replace(d, "kinds", d["kinds"][:1] + [1.0] + d["kinds"][2:]),
    "root_kind_float": lambda d: _replace(d, "kinds", [2.0] + d["kinds"][1:]),
    # Node 2's parent is node 1, a finish node.
    "parent_true": lambda d: _replace(d, "parents", d["parents"][:2] + [True] + d["parents"][3:]),
    # The root's parent used to go unread.
    "root_parent_5": lambda d: _replace(d, "parents", [5] + d["parents"][1:]),
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

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_cli_refuses_a_bool_kind(self, tmp_path, monkeypatch, fmt):
        dump_with_damaged_header(tmp_path, monkeypatch, fmt, "kind_true")
        completed = run_cli("check-trace", FORMATS[fmt], cwd=tmp_path)
        assert_one_error_line(completed, FORMATS[fmt])
        assert "kind True" in completed.stderr


#: JSON nested past any recursion limit the interpreter allows.
DEEP = "[" * 100_000 + "]" * 100_000


def dump_deep(tmp_path, case):
    """A trace whose header (v2, v3) or footer (v3) nests :data:`DEEP`."""
    fmt = "v2" if case == "v2-header" else "v3"
    path = tmp_path / FORMATS[fmt]
    dump_trace(recorded(), str(path))
    deep_header = f'{{"format": "repro-trace", "version": {fmt[1]}, "dpst": {DEEP}}}'
    if case == "v2-header":
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join([deep_header, *lines[1:]]) + "\n", encoding="utf-8")
    elif case == "v3-header":
        rewrite_v3(str(path), header=deep_header)
    else:
        rewrite_v3(str(path), footer=lambda table: json.dumps(
            {**table, "plain_locations": "DEEP"}, sort_keys=True
        ).replace('"DEEP"', DEEP))
    return str(path)


class TestOverDeepJSON:
    """A header or footer nested past the recursion limit used to end in
    a ``RecursionError`` traceback (exit 1)."""

    CASES = ["v2-header", "v3-footer", "v3-header"]

    @pytest.mark.parametrize("case", CASES)
    def test_trace_error_names_the_file(self, tmp_path, case):
        path = dump_deep(tmp_path, case)
        for strict in (True, False):
            with pytest.raises(TraceError, match="recursion") as err:
                open_trace(path, strict=strict)
            assert os.path.basename(path) in str(err.value)

    @pytest.mark.parametrize("case", CASES)
    def test_cli_exits_2_with_one_line(self, tmp_path, case):
        name = os.path.basename(dump_deep(tmp_path, case))
        for extra in ((), ("--lenient",)):
            completed = run_cli("check-trace", name, *extra, cwd=tmp_path)
            assert_one_error_line(completed, name)


class TestMisstampedLine:
    """At ``jobs > 1`` a v2 line's ``"sk"`` stamp alone routes it.  A
    stamp that is not its location's key used to check the access in the
    wrong shard: with the second access moved away, ``--jobs 2`` printed
    no violations where ``--jobs 1`` reports the RWW triple."""

    def dump(self, tmp_path):
        """The v2 trace of :func:`buggy` with the second access's stamp
        one past its key, which moves it to the other shard of 2."""
        path = tmp_path / "t.jsonl"
        dump_trace(recorded(), str(path))
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        index = [i for i, line in enumerate(lines) if '"MemoryEvent"' in line][1]
        row = json.loads(lines[index])
        row["sk"] += 1
        lines[index] = json.dumps(row)
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_strict_raises_naming_the_file(self, tmp_path, jobs):
        path = self.dump(tmp_path)
        reader = open_trace(path)
        with pytest.raises(TraceError, match="shard stamp") as err:
            for shard in range(jobs):
                list(reader.checking_events(shard=shard, jobs=jobs))
        assert "t.jsonl" in str(err.value)
        # A check's worker fails on it like on any other bad line.
        with pytest.raises(CheckerError, match="TraceError: .*shard stamp") as err:
            CheckSession(
                path, jobs=jobs, policy=WorkerPolicy(max_retries=0)
            ).check()
        assert "t.jsonl" in str(err.value)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_lenient_counts_the_line_once(self, tmp_path, jobs):
        path = self.dump(tmp_path)
        recorder = MetricsRecorder()
        CheckSession(path, jobs=jobs, recorder=recorder, strict=False).check()
        assert recorder.snapshot().counters["trace.lines_skipped"] == 1

    def test_only_the_stamped_shard_reads_it(self, tmp_path):
        path = self.dump(tmp_path)
        reader = open_trace(path, strict=False)
        key = serialize.location_shard_key("X")
        kept = [
            len(list(reader.memory_events(shard=shard, jobs=2)))
            for shard in range(2)
        ]
        # Three accesses in the key's shard; the misstamped one is
        # skipped by the other shard, the only one that decodes it.
        assert kept[key % 2] == 3 and kept[1 - key % 2] == 0
        assert reader.stamped_lines_skipped == 1

    def test_cli_exits_2_strict_and_skips_lenient(self, tmp_path):
        self.dump(tmp_path)
        # --jobs 1 reads no stamp, and reports the triple.
        assert run_cli("check-trace", "t.jsonl", cwd=tmp_path).returncode == 1
        completed = run_cli("check-trace", "t.jsonl", "--jobs", "2", cwd=tmp_path)
        assert_one_error_line(completed, "t.jsonl")
        lenient = run_cli(
            "check-trace", "t.jsonl", "--lenient", "--jobs", "2", cwd=tmp_path
        )
        assert lenient.returncode == 0, lenient.stderr
        assert "skipped 1" in lenient.stdout

    def test_v3_moves_a_location_whole(self, tmp_path):
        # v3 keys a location, not an access, and the reader computes the
        # key from the decoded location: a wrong key stored in the footer
        # is ignored, and the location's shard sees all of its accesses.
        path = str(tmp_path / "t.trc")
        dump_trace(recorded(), path)

        def edit(table):
            table["location_sk"] = [serialize.location_shard_key("X") + 1]

        rewrite_v3(path, footer=edit)
        key = serialize.location_shard_key("X")
        with open_trace(path) as reader:
            kept = [
                len(list(reader.memory_events(shard=shard, jobs=2)))
                for shard in range(2)
            ]
        assert kept[key % 2] == 4 and kept[1 - key % 2] == 0
        for jobs in (1, 2):
            assert CheckSession(path, jobs=jobs).check().patterns() == ["RWW"]


#: A target module whose two tasks read-modify-write the same three
#: locations, one task through subclass values and the other through the
#: equal plain values a trace reader decodes.
SUBCLASS_TARGET = """
import collections
import enum

Cell = collections.namedtuple("Cell", "grid x")


class Color(enum.IntEnum):
    RED = 1


class Name(str, enum.Enum):
    TOTAL = "total"


def mixed(ctx):
    def rmw(locations):
        def body(inner):
            for location in locations:
                inner.write(location, (inner.read(location) or 0) + 1)
        return body

    ctx.spawn(rmw([Cell("g", 3), Color.RED, Name.TOTAL]))
    ctx.spawn(rmw([("g", 3), 1, "total"]))
    ctx.sync()
"""


class TestSubclassLocations:
    """A namedtuple, ``IntEnum`` or ``(str, Enum)`` location is written
    as its base value and read back so.  Both writers key its shard on
    that value, the key a reader recomputes: keyed on the subclass's own
    ``repr``, every access to it was refused at ``jobs > 1`` by the stamp
    check, and an equal plain location could land in another shard."""

    @pytest.mark.parametrize("name", sorted(FORMATS.values()))
    def test_check_trace_gives_one_verdict_at_every_job_count(self, tmp_path, name):
        (tmp_path / "subclass_target.py").write_text(SUBCLASS_TARGET, encoding="utf-8")
        recorded = run_cli("record", "subclass_target:mixed", "-o", name, cwd=tmp_path)
        assert recorded.returncode == 0, recorded.stderr
        runs = [
            run_cli("check-trace", name, "--jobs", str(jobs), cwd=tmp_path)
            for jobs in (1, 2)
        ]
        for completed in runs:
            assert completed.returncode == 1, completed.stderr
        # Shards report in their own order.
        assert sorted(runs[0].stdout.splitlines()) == sorted(runs[1].stdout.splitlines())
        assert runs[0].stdout.startswith("3 distinct violation(s)")
        path = str(tmp_path / name)
        for jobs in (3, 4):
            assert normalize_report(CheckSession(path, jobs=jobs).check()) == (
                normalize_report(CheckSession(path).check())
            )

    def test_in_memory_check_gives_one_verdict_at_every_job_count(
        self, tmp_path, monkeypatch
    ):
        # No file: shards are picked from the live subclass values.  The
        # target is a module on sys.path, so workers can unpickle them.
        (tmp_path / "subclass_target.py").write_text(SUBCLASS_TARGET, encoding="utf-8")
        monkeypatch.syspath_prepend(str(tmp_path))
        spec = importlib.util.spec_from_file_location(
            "subclass_target", tmp_path / "subclass_target.py"
        )
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "subclass_target", module)
        spec.loader.exec_module(module)
        program = TaskProgram(module.mixed)
        serial = normalize_report(CheckSession(program).check())
        assert len(serial[0]) == 3
        for jobs in (2, 3, 4):
            assert normalize_report(CheckSession(program, jobs=jobs).check()) == serial


def mixed_types(ctx):
    """Two parallel read-modify-writes of one location spelled ``1``,
    ``1.0`` and ``True``: one RWW violation on ``1``."""

    def rmw(read_at, write_at):
        def body(inner):
            inner.write(write_at, (inner.read(read_at) or 0) + 1)

        return body

    ctx.spawn(rmw(1, 1.0))
    ctx.spawn(rmw(True, 1))
    ctx.sync()


class TestMixedTypeLocations:
    """``1``, ``1.0`` and ``True`` are one location to the shadow memory
    and every checker, so they share a shard key.  Keyed on their own
    ``repr``, they split across shards: ``jobs`` 3 and 4 printed no
    violations where ``jobs`` 1 and 2 report the triple.  A v3 file whose
    footer holds such keys (``v3-older-keys``) did so too, until readers
    stopped reading stored keys."""

    @pytest.mark.parametrize("source", ["v2", "v3", "in-memory", "v3-older-keys"])
    def test_one_verdict_at_every_job_count(self, tmp_path, source):
        trace = run_program(TaskProgram(mixed_types), record_trace=True).trace
        if source != "in-memory":
            path = str(tmp_path / FORMATS[source[:2]])
            dump_trace(trace, path)
            if source == "v3-older-keys":
                rewrite_to_older_keys(path)
            trace = path
        reports = [CheckSession(trace, jobs=jobs).check() for jobs in (1, 2, 3, 4)]
        assert reports[0].patterns() == ["RWW"]
        assert [repr(loc) for loc in reports[0].locations()] == ["1"]
        for report in reports[1:]:
            assert report.describe() == reports[0].describe()

    def test_earlier_writers_stamp_is_refused_above_one_job(self, tmp_path):
        # Earlier writers stamped 1.0 and True with the CRC of their own
        # repr, so the shard each stamp names is no longer theirs.
        path = tmp_path / "t.jsonl"
        trace = run_program(TaskProgram(mixed_types), record_trace=True).trace
        dump_trace(trace, str(path))
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        for index, line in enumerate(lines):
            row = json.loads(line)
            if row["type"] == "MemoryEvent":
                location = serialize.decode_location(row["location"])
                row["sk"] = zlib.crc32(repr(location).encode("utf-8"))
                lines[index] = json.dumps(row)
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        assert CheckSession(str(path)).check().patterns() == ["RWW"]
        with pytest.raises(TraceError, match="shard stamp"):
            for shard in range(2):
                list(open_trace(str(path)).checking_events(shard=shard, jobs=2))


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
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lenient_count_travels_with_the_report(self, tmp_path, fmt, jobs):
        """The skip count is the report's, so a ``jobs=2`` check and a
        cache hit count it too (both used to read 0)."""
        path = self.dump(tmp_path, fmt, 999)
        rc = str(tmp_path / "rc")
        for hit in (False, True):
            session = CheckSession(path, jobs=jobs, strict=False)
            report = session.check(cache_dir=rc)
            assert session.cache_info["hit"] is hit
            assert report.lines_skipped == session.lines_skipped == 1
            assert report.patterns() == ["RWW"]
        assert CheckSession(path, jobs=jobs, strict=False).check().lines_skipped == 1

    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cli_prints_the_count_on_a_hit(self, tmp_path, fmt, jobs, capsys):
        from repro.cli import main

        path = self.dump(tmp_path, fmt, 999)
        argv = ["check-trace", path, "--lenient", "--jobs", jobs,
                "--cache-dir", str(tmp_path / "rc")]
        for status in ("miss", "hit"):
            assert main(argv) == 1
            out = capsys.readouterr().out
            assert f"\nresult cache: {status}" in out
            assert "\nlenient mode: skipped 1 undecodable trace line(s)" in out

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
