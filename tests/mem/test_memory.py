"""Tests for the flat word memory."""

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.memory import WordMemory


class TestWordMemory:
    def test_untouched_words_read_zero(self):
        assert WordMemory().load(12345) == 0

    def test_store_then_load(self):
        memory = WordMemory()
        memory.store(7, 99)
        assert memory.load(7) == 99

    def test_values_truncate_to_32_bits(self):
        memory = WordMemory()
        memory.store(1, 0x1_0000_0002)
        assert memory.load(1) == 2

    def test_line_round_trip(self):
        memory = WordMemory()
        values = tuple(range(100, 116))
        for word_address, value in zip(range(80, 96), values):
            memory.store(word_address, value)
        assert memory.load_line(5) == values

    def test_load_line_of_untouched_region_is_zero(self):
        assert WordMemory().load_line(3) == (0,) * 16

    def test_equality_ignores_explicit_zeros(self):
        first = WordMemory()
        second = WordMemory()
        first.store(4, 0)
        assert first == second

    def test_equality_detects_differences(self):
        first = WordMemory()
        second = WordMemory()
        first.store(4, 1)
        assert first != second

    def test_snapshot_is_independent(self):
        memory = WordMemory()
        memory.store(1, 2)
        snapshot = memory.snapshot()
        memory.store(1, 3)
        assert snapshot[1] == 2

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=1 << 20),
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            max_size=64,
        )
    )
    def test_last_store_wins(self, stores):
        memory = WordMemory()
        for address, value in stores.items():
            memory.store(address, 0)
            memory.store(address, value)
        for address, value in stores.items():
            assert memory.load(address) == value
