"""make_checker polymorphism and the run_program(checkers=...) surface."""

import pytest

from repro.checker import (
    BasicAtomicityChecker,
    OptAtomicityChecker,
    UnknownCheckerError,
    VelodromeChecker,
    checker_name_of,
    make_checker,
)
from repro.errors import CheckerError
from repro.runtime import TaskProgram, run_program


def buggy(ctx):
    def rmw(inner):
        value = inner.read("X")
        inner.write("X", value + 1)

    ctx.spawn(rmw)
    ctx.spawn(rmw)
    ctx.sync()


class TestMakeChecker:
    def test_name(self):
        assert isinstance(make_checker("optimized"), OptAtomicityChecker)

    def test_name_with_kwargs(self):
        assert make_checker("optimized", mode="thorough").mode == "thorough"

    def test_class(self):
        assert isinstance(make_checker(BasicAtomicityChecker), BasicAtomicityChecker)

    def test_class_with_kwargs(self):
        checker = make_checker(OptAtomicityChecker, mode="thorough")
        assert checker.mode == "thorough"

    def test_instance_passes_through(self):
        instance = VelodromeChecker()
        assert make_checker(instance) is instance

    def test_instance_rejects_kwargs(self):
        with pytest.raises(CheckerError):
            make_checker(OptAtomicityChecker(), mode="thorough")

    def test_unknown_name(self):
        with pytest.raises(UnknownCheckerError):
            make_checker("psychic")

    def test_unknown_object(self):
        with pytest.raises(CheckerError):
            make_checker(42)

    def test_error_doubles_as_value_error(self):
        # Long-standing callers catch ValueError; that contract holds.
        with pytest.raises(ValueError):
            make_checker("psychic")

    def test_default_is_optimized(self):
        assert isinstance(make_checker(), OptAtomicityChecker)


class TestCheckerNameOf:
    def test_all_forms(self):
        assert checker_name_of("basic") == "basic"
        assert checker_name_of(OptAtomicityChecker) == "optimized"
        assert checker_name_of(BasicAtomicityChecker()) == "basic"

    def test_fallback_to_type_name(self):
        class Oddball:
            pass

        assert checker_name_of(Oddball()) == "Oddball"


class TestRunProgramCheckers:
    def test_mixed_spec_forms(self):
        instance = VelodromeChecker()
        result = run_program(
            TaskProgram(buggy),
            checkers=["optimized", BasicAtomicityChecker, instance],
        )
        assert set(result.reports) == {"optimized", "basic", "velodrome"}
        assert instance in result.observers

    def test_reports_mapping_and_alias(self):
        result = run_program(TaskProgram(buggy), checkers=["optimized"])
        assert set(result.reports["optimized"].locations()) == {"X"}

    def test_first_violation(self):
        result = run_program(TaskProgram(buggy), checkers=["optimized"])
        violation = result.first_violation()
        assert violation.location == "X"
        assert violation.pattern in ("RWR", "RWW")

    def test_first_violation_none_when_clean(self):
        def clean(ctx):
            ctx.write("X", 1)

        result = run_program(TaskProgram(clean), checkers=["optimized"])
        assert result.first_violation() is None

    def test_checkers_compose_with_observers(self):
        explicit = OptAtomicityChecker()
        result = run_program(
            TaskProgram(buggy), observers=[explicit], checkers=["basic"]
        )
        assert explicit in result.observers
        assert set(result.reports) == {"optimized", "basic"}
