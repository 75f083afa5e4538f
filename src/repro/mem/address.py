"""Address algebra shared by the whole library.

The paper's evaluation (Table 5) uses 64-byte cache lines, 32-bit byte
addresses, line addresses of 26 bits (TM signatures encode these) and word
addresses of 30 bits (TLS signatures encode these).  This module fixes those
conventions in one place.

Three address spaces appear throughout the code base:

``byte address``
    A raw 32-bit address as issued by a load or store.

``word address``
    ``byte_address >> 2`` — the granularity at which TLS signatures encode
    accesses and at which the Updated Word Bitmask unit (Section 4.4) merges
    partially updated lines.

``line address``
    ``byte_address >> 6`` — the granularity of cache tags, coherence
    messages, and TM signatures.
"""

from __future__ import annotations

import enum

from repro.errors import ConfigurationError

#: Number of bytes in a machine word (32-bit words, as in the paper).
BYTES_PER_WORD = 4

#: Number of bytes in a cache line (Table 5: 64 B lines in both TLS and TM).
BYTES_PER_LINE = 64

#: Number of words contained in one cache line.
WORDS_PER_LINE = BYTES_PER_LINE // BYTES_PER_WORD

#: log2(BYTES_PER_WORD) — shift from byte to word addresses.
WORD_SHIFT = 2

#: log2(BYTES_PER_LINE) — shift from byte to line addresses.
LINE_SHIFT = 6

#: log2(WORDS_PER_LINE) — shift from word to line addresses.
WORD_TO_LINE_SHIFT = LINE_SHIFT - WORD_SHIFT

#: Width of a byte address in bits.
BYTE_ADDRESS_BITS = 32

#: Width of a word address in bits (Table 5: 30 bits in TLS).
WORD_ADDRESS_BITS = BYTE_ADDRESS_BITS - WORD_SHIFT

#: Width of a line address in bits (Table 5: 26 bits in TM).
LINE_ADDRESS_BITS = BYTE_ADDRESS_BITS - LINE_SHIFT


class Granularity(enum.Enum):
    """The granularity at which a signature encodes addresses.

    The paper configures TM signatures to encode *line* addresses and TLS
    signatures to encode *word* addresses, because the TLS applications have
    fine-grain sharing (Section 7.1).
    """

    LINE = "line"
    WORD = "word"

    @property
    def address_bits(self) -> int:
        """Width in bits of an address at this granularity."""
        if self is Granularity.LINE:
            return LINE_ADDRESS_BITS
        return WORD_ADDRESS_BITS

    def from_byte(self, byte_address: int) -> int:
        """Convert a byte address to this granularity."""
        if self is Granularity.LINE:
            return byte_to_line(byte_address)
        return byte_to_word(byte_address)

    def line_of(self, address: int) -> int:
        """Return the line address containing an address at this granularity."""
        if self is Granularity.LINE:
            return address
        return word_to_line(address)


def byte_to_word(byte_address: int) -> int:
    """Word address containing a byte address."""
    return byte_address >> WORD_SHIFT


def byte_to_line(byte_address: int) -> int:
    """Line address containing a byte address."""
    return byte_address >> LINE_SHIFT


def word_to_byte(word_address: int) -> int:
    """Byte address of the first byte of a word."""
    return word_address << WORD_SHIFT


def line_to_byte(line_address: int) -> int:
    """Byte address of the first byte of a line."""
    return line_address << LINE_SHIFT


def word_to_line(word_address: int) -> int:
    """Line address containing a word address."""
    return word_address >> WORD_TO_LINE_SHIFT


def word_offset_in_line(word_address: int) -> int:
    """Offset (0..15) of a word within its cache line."""
    return word_address & (WORDS_PER_LINE - 1)


def words_of_line(line_address: int) -> range:
    """All word addresses contained in a given line, in order."""
    base = line_address << WORD_TO_LINE_SHIFT
    return range(base, base + WORDS_PER_LINE)


def line_index_bits(num_sets: int) -> int:
    """Number of cache-index bits for a cache with ``num_sets`` sets.

    Raises :class:`~repro.errors.ConfigurationError` if ``num_sets`` is not
    a positive power of two — set-index extraction is a pure bit slice and
    the whole delta-exactness argument of Section 3.2 relies on that.
    """
    if num_sets <= 0 or num_sets & (num_sets - 1):
        raise ConfigurationError(
            f"number of cache sets must be a positive power of two, got {num_sets}"
        )
    return num_sets.bit_length() - 1
