"""Tests for the bit-vector helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.bitvector import iter_set_bits, popcount


class TestPopcount:
    def test_zero(self):
        assert popcount(0) == 0

    def test_known_values(self):
        assert popcount(0b1011) == 3
        assert popcount((1 << 100) | 1) == 2

    @given(st.integers(min_value=0, max_value=1 << 256))
    def test_matches_bin_count(self, value):
        assert popcount(value) == bin(value).count("1")


class TestIterSetBits:
    def test_empty(self):
        assert list(iter_set_bits(0)) == []

    def test_positions_ascending(self):
        assert list(iter_set_bits(0b101001)) == [0, 3, 5]

    @given(st.sets(st.integers(min_value=0, max_value=500), max_size=40))
    def test_round_trip(self, positions):
        value = sum(1 << p for p in positions)
        assert set(iter_set_bits(value)) == positions
