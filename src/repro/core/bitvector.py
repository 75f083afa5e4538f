"""Bit helpers for fixed-width bit vectors held in Python integers.

Signatures, cache-set bitmasks and word bitmasks are all fixed-width bit
vectors in the proposed hardware.  Python's arbitrary-precision integers
give us constant-factor-fast bit-parallel operations (AND/OR/popcount over
thousands of bits in a single machine-level loop), which keeps the
simulators usable on realistic workloads.
"""

from __future__ import annotations

from typing import Iterator


def popcount(value: int) -> int:
    """Number of set bits in a non-negative integer."""
    try:
        return value.bit_count()  # Python >= 3.10
    except AttributeError:  # pragma: no cover - legacy interpreter path
        return bin(value).count("1")


def iter_set_bits(value: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order.

    Uses the ``value & -value`` lowest-set-bit trick, so the cost is
    proportional to the number of set bits, not the width — signatures are
    sparse, which is exactly why the paper compresses them with RLE.
    """
    while value:
        low = value & -value
        yield low.bit_length() - 1
        value ^= low
