"""Memory substrate: address algebra, flat word memory, overflow areas.

This package provides the lowest layer of the reproduction: the address
conventions shared by every other subsystem (:mod:`repro.mem.address`), a
word-addressable flat memory used as the architectural backing store
(:mod:`repro.mem.memory`), and the per-thread in-memory overflow area that
Bulk and conventional TM schemes spill speculative state into
(:mod:`repro.mem.overflow`, paper Section 6.2.2).
"""

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
from repro.mem.memory import WordMemory
from repro.mem.overflow import OverflowArea

__all__ = [
    "BYTES_PER_LINE",
    "BYTES_PER_WORD",
    "WORDS_PER_LINE",
    "Granularity",
    "byte_to_line",
    "byte_to_word",
    "line_index_bits",
    "line_to_byte",
    "word_offset_in_line",
    "word_to_byte",
    "word_to_line",
    "words_of_line",
    "WordMemory",
    "OverflowArea",
]
