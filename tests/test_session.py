"""CheckSession: the unified front door over programs, traces, and files."""

import pytest

from repro import CheckSession, TaskProgram, run_program
from repro.checker import BasicAtomicityChecker, OptAtomicityChecker
from repro.errors import TraceError
from repro.report import ViolationReport
from repro.trace.serialize import dump_trace


RUNS = []


def _rmw(ctx):
    value = ctx.read("X")
    ctx.write("X", value + 1)


def buggy_body(ctx):
    RUNS.append(1)
    ctx.write("X", 0)
    ctx.spawn(_rmw)
    ctx.spawn(_rmw)
    ctx.sync()


def safe_body(ctx):
    def writer(inner, i):
        inner.write(("out", i), i)

    for i in range(3):
        ctx.spawn(writer, i)
    ctx.sync()


@pytest.fixture(autouse=True)
def _reset_runs():
    RUNS.clear()


def recorded_trace():
    return run_program(TaskProgram(buggy_body), record_trace=True).trace


class TestProgramSource:
    def test_check_finds_violation(self):
        report = CheckSession(TaskProgram(buggy_body)).check()
        assert set(report.locations()) == {"X"}

    def test_bare_callable_is_wrapped(self):
        assert CheckSession(buggy_body).check()

    def test_program_runs_exactly_once(self):
        session = CheckSession(TaskProgram(buggy_body))
        session.check("optimized")
        session.check("basic")
        session.check("racedetector")
        assert sum(RUNS) == 1
        assert set(session.reports) == {"optimized", "basic", "racedetector"}

    def test_program_annotations_flow_through(self):
        from repro.checker.annotations import AtomicAnnotations

        annotations = AtomicAnnotations().annotate("Y")  # X unchecked
        program = TaskProgram(buggy_body, annotations=annotations)
        assert not CheckSession(program).check()

    def test_sharded_program_source(self):
        report = CheckSession(TaskProgram(buggy_body), jobs=2).check()
        assert set(report.locations()) == {"X"}

    def test_source_kind_and_run_result(self):
        session = CheckSession(TaskProgram(buggy_body))
        assert session.source_kind == "program"
        session.check()
        assert session.run_result is not None
        assert session.dpst is not None


class TestTraceSource:
    def test_trace_checked_offline(self):
        session = CheckSession(recorded_trace())
        assert session.source_kind == "trace"
        assert set(session.check().locations()) == {"X"}

    def test_run_result_absent(self):
        assert CheckSession(recorded_trace()).run_result is None


class TestFileSource:
    @pytest.mark.parametrize("suffix", ["json", "jsonl"])
    def test_both_formats(self, tmp_path, suffix):
        path = str(tmp_path / f"trace.{suffix}")
        dump_trace(recorded_trace(), path)
        session = CheckSession(path)
        assert session.source_kind == "file"
        assert set(session.check().locations()) == {"X"}

    def test_sharded_file_source(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        dump_trace(recorded_trace(), path)
        report = CheckSession(path, jobs=4).check()
        assert set(report.locations()) == {"X"}

    def test_trace_property_materializes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trace = recorded_trace()
        dump_trace(trace, path)
        session = CheckSession(path)
        assert len(session.trace) == len(trace)
        assert session.dpst is not None

    @pytest.mark.parametrize("suffix", ["jsonl", "trc"])
    def test_views_open_the_file_on_first_need(self, tmp_path, suffix):
        path = str(tmp_path / f"trace.{suffix}")
        trace = recorded_trace()
        dump_trace(trace, path)
        session = CheckSession(path)
        assert session.source_kind == "file"
        assert session.lines_skipped == 0
        assert len(session.dpst) == len(trace.dpst)
        assert len(CheckSession(path).trace) == len(trace)
        lenient = CheckSession(path, strict=False)
        assert lenient.lines_skipped == 0
        assert set(lenient.check().locations()) == {"X"}
        assert lenient.lines_skipped == 0

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_path_that_is_not_a_file_is_refused(self, tmp_path, kind):
        path = tmp_path / "trace.trc"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(TraceError, match="no trace file at"):
            CheckSession(str(path))

    def test_undecodable_file_raises_from_check(self, tmp_path):
        """The file opens on first need, so its decoding error comes from
        the check (or :attr:`dpst`), not from the constructor."""
        path = tmp_path / "trace.jsonl"
        path.write_text("not json\n")
        session = CheckSession(str(path))
        with pytest.raises(TraceError, match="trace.jsonl"):
            session.check()
        with pytest.raises(TraceError, match="trace.jsonl"):
            session.dpst


class TestCheckerSpecs:
    def test_class_and_instance_specs(self):
        trace = recorded_trace()
        by_class = CheckSession(trace, checker=OptAtomicityChecker).check()
        by_instance = CheckSession(trace).check(BasicAtomicityChecker())
        assert by_class and by_instance

    def test_checker_kwargs_forwarded(self):
        session = CheckSession(recorded_trace())
        session.check("optimized", mode="thorough")
        assert "optimized" in session.reports

    def test_check_all(self):
        reports = CheckSession(recorded_trace()).check_all("optimized", "basic")
        assert set(reports) == {"optimized", "basic"}
        assert all(isinstance(r, ViolationReport) for r in reports.values())


class TestAggregateViews:
    def test_report_merges_all_checks(self):
        session = CheckSession(recorded_trace())
        session.check("optimized")
        session.check("basic")
        merged = session.report()
        assert len(merged) >= len(session.reports["optimized"])

    def test_report_runs_default_check_on_demand(self):
        session = CheckSession(recorded_trace())
        assert session.report()
        assert "optimized" in session.reports

    def test_first_violation(self):
        violation = CheckSession(recorded_trace()).first_violation
        assert violation is not None and violation.location == "X"

    def test_first_violation_none_when_safe(self):
        assert CheckSession(TaskProgram(safe_body)).first_violation is None


class TestEngineSelection:
    @pytest.mark.parametrize("engine", ["lca", "labels"])
    def test_engines_agree(self, engine):
        report = CheckSession(recorded_trace(), engine=engine).check()
        assert set(report.locations()) == {"X"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(TraceError):
            CheckSession(recorded_trace(), engine="psychic").check()


class TestErrors:
    def test_bad_source(self):
        with pytest.raises(TraceError):
            CheckSession(12345)


class TestConvenienceWrapper:
    def test_check_trace_on_every_source_shape(self, tmp_path):
        trace = recorded_trace()
        path = str(tmp_path / "t.jsonl")
        dump_trace(trace, path)
        for source in (TaskProgram(buggy_body), trace, path):
            assert set(CheckSession(source).check().locations()) == {"X"}

    def test_check_trace_jobs(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace(recorded_trace(), path)
        assert CheckSession(path, jobs=2).check()


#: The modules that once exported the removed entry points.
FRONT_DOOR_MODULES = [
    "repro",
    "repro.session",
    "repro.trace",
    "repro.trace.replay",
    "repro.checker.sharded",
]


class TestOneFrontDoor:
    @pytest.mark.parametrize("module", FRONT_DOOR_MODULES)
    def test_removed_entry_points_are_gone(self, module):
        """``CheckSession`` is the only way to run an offline check, and
        ``jobs`` and the engine are the session's alone."""
        import importlib

        imported = importlib.import_module(module)
        for name in ("check_sharded", "check_trace", "replay_trace"):
            assert not hasattr(imported, name), name
        session = CheckSession(recorded_trace())
        for keyword, value in (("jobs", 2), ("engine", "labels")):
            with pytest.raises(TypeError):
                session.check(**{keyword: value})
        assert session.reports == {}
