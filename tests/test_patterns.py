"""The Figure 4 serializability table, validated against first principles."""

import pytest

from repro.checker.patterns import (
    SERIALIZABLE_PATTERNS,
    UNSERIALIZABLE_PATTERNS,
    all_triples,
    brute_force_serializable,
    is_serializable,
    is_unserializable_triple,
    pattern_violated_by,
    serializability_table,
    triple_code,
)
from repro.report import READ, WRITE
from repro.runtime.events import MemoryEvent


class TestTable:
    def test_eight_rows(self):
        assert len(serializability_table()) == 8

    def test_exactly_five_unserializable(self):
        assert UNSERIALIZABLE_PATTERNS == ("RWR", "RWW", "WRW", "WWR", "WWW")

    def test_exactly_three_serializable(self):
        assert SERIALIZABLE_PATTERNS == ("RRR", "RRW", "WRR")

    @pytest.mark.parametrize("a1,a2,a3", list(all_triples()))
    def test_matches_brute_force(self, a1, a2, a3):
        assert is_serializable(a1, a2, a3) == brute_force_serializable(a1, a2, a3)

    def test_conflict_rule(self):
        """Unserializable iff A2 conflicts with both A1 and A3."""
        def conflicts(x, y):
            return x == WRITE or y == WRITE

        for a1, a2, a3 in all_triples():
            expected = conflicts(a1, a2) and conflicts(a2, a3)
            assert is_unserializable_triple(a1, a2, a3) == expected


class TestTripleCode:
    def test_codes(self):
        assert triple_code(READ, WRITE, READ) == "RWR"
        assert triple_code(WRITE, WRITE, WRITE) == "WWW"
        assert triple_code(READ, READ, WRITE) == "RRW"

    def test_paper_examples(self):
        # Figure 5: S2's (R, W) pair with S3's interleaving write.
        assert is_unserializable_triple(READ, WRITE, WRITE)
        # A read interleaving a read-read pair is harmless.
        assert is_serializable(READ, READ, READ)


class TestPatternViolatedBy:
    """A pattern is the ``(A1, A3)`` pair of one step's events."""

    def _event(self, step, access_type):
        return MemoryEvent(seq=0, task=step, step=step, location="x",
                           access_type=access_type)

    def _pattern(self, first, second):
        return (self._event(1, first), self._event(1, second))

    def test_write_breaks_read_read(self):
        pattern = self._pattern(READ, READ)
        assert pattern_violated_by(pattern, self._event(2, WRITE))
        assert not pattern_violated_by(pattern, self._event(2, READ))

    def test_read_breaks_only_write_write(self):
        reader = self._event(2, READ)
        assert pattern_violated_by(self._pattern(WRITE, WRITE), reader)
        assert not pattern_violated_by(self._pattern(READ, WRITE), reader)
        assert not pattern_violated_by(self._pattern(WRITE, READ), reader)
        assert not pattern_violated_by(self._pattern(READ, READ), reader)

    def test_write_breaks_every_pattern(self):
        writer = self._event(2, WRITE)
        for first in (READ, WRITE):
            for second in (READ, WRITE):
                assert pattern_violated_by(self._pattern(first, second), writer)

    def test_kind_codes(self):
        # The pattern's events are A1 and A3, in that order: the verdict
        # is the Figure 4 row of A1, the interleaver and A3.
        for a1, a2, a3 in all_triples():
            pattern = self._pattern(a1, a3)
            assert pattern_violated_by(pattern, self._event(2, a2)) == (
                triple_code(a1, a2, a3) in UNSERIALIZABLE_PATTERNS
            )
