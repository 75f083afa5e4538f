"""Tests for the address algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mem.address import (
    BYTES_PER_LINE,
    BYTES_PER_WORD,
    WORDS_PER_LINE,
    Granularity,
    byte_to_line,
    byte_to_word,
    line_index_bits,
    line_to_byte,
    word_offset_in_line,
    word_to_byte,
    word_to_line,
    words_of_line,
)

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestConstants:
    def test_line_holds_sixteen_words(self):
        assert WORDS_PER_LINE == 16
        assert BYTES_PER_LINE == WORDS_PER_LINE * BYTES_PER_WORD

    def test_granularity_widths_match_table5(self):
        assert Granularity.LINE.address_bits == 26
        assert Granularity.WORD.address_bits == 30


class TestConversions:
    def test_byte_to_word(self):
        assert byte_to_word(0) == 0
        assert byte_to_word(4) == 1
        assert byte_to_word(7) == 1
        assert byte_to_word(64) == 16

    def test_byte_to_line(self):
        assert byte_to_line(0) == 0
        assert byte_to_line(63) == 0
        assert byte_to_line(64) == 1

    def test_word_to_line(self):
        assert word_to_line(0) == 0
        assert word_to_line(15) == 0
        assert word_to_line(16) == 1

    @given(addresses)
    def test_byte_word_line_consistent(self, byte_address):
        assert word_to_line(byte_to_word(byte_address)) == byte_to_line(
            byte_address
        )

    @given(st.integers(min_value=0, max_value=(1 << 30) - 1))
    def test_word_round_trip(self, word_address):
        assert byte_to_word(word_to_byte(word_address)) == word_address

    @given(st.integers(min_value=0, max_value=(1 << 26) - 1))
    def test_line_round_trip(self, line_address):
        assert byte_to_line(line_to_byte(line_address)) == line_address

    @given(st.integers(min_value=0, max_value=(1 << 26) - 1))
    def test_words_of_line_are_in_line(self, line_address):
        words = list(words_of_line(line_address))
        assert len(words) == WORDS_PER_LINE
        assert all(word_to_line(w) == line_address for w in words)
        assert [word_offset_in_line(w) for w in words] == list(range(16))


class TestGranularity:
    def test_line_from_byte(self):
        assert Granularity.LINE.from_byte(0x1040) == 0x41

    def test_word_from_byte(self):
        assert Granularity.WORD.from_byte(0x1040) == 0x410

    def test_line_of_word_granularity(self):
        assert Granularity.WORD.line_of(0x410) == 0x41

    def test_line_of_line_granularity_is_identity(self):
        assert Granularity.LINE.line_of(0x41) == 0x41


class TestSetIndex:
    def test_line_index_bits(self):
        assert line_index_bits(64) == 6
        assert line_index_bits(128) == 7

    def test_line_index_bits_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            line_index_bits(96)

    def test_line_index_bits_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            line_index_bits(0)
