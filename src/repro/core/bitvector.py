"""Fixed-width bit vectors backed by Python integers.

Signatures, cache-set bitmasks and word bitmasks are all fixed-width bit
vectors in the proposed hardware.  Python's arbitrary-precision integers
give us constant-factor-fast bit-parallel operations (AND/OR/popcount over
thousands of bits in a single machine-level loop), which keeps the
simulators usable on realistic workloads.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.errors import ConfigurationError


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


class BitVector:
    """A mutable bit vector of fixed ``width``.

    Out-of-range bit positions raise rather than silently growing the
    vector: the hardware registers being modelled have a fixed size.
    """

    __slots__ = ("width", "value")

    def __init__(self, width: int, value: int = 0) -> None:
        if width <= 0:
            raise ConfigurationError(f"bit vector width must be positive, got {width}")
        if value < 0 or value >> width:
            raise ConfigurationError(
                f"initial value does not fit in {width} bits"
            )
        self.width = width
        self.value = value

    @classmethod
    def from_positions(cls, width: int, positions: Iterable[int]) -> "BitVector":
        """Build a vector with the given bit positions set."""
        vec = cls(width)
        for position in positions:
            vec.set(position)
        return vec

    def _check(self, position: int) -> None:
        if not 0 <= position < self.width:
            raise IndexError(
                f"bit position {position} out of range for width {self.width}"
            )

    def set(self, position: int) -> None:
        """Set one bit."""
        self._check(position)
        self.value |= 1 << position

    def clear_bit(self, position: int) -> None:
        """Clear one bit."""
        self._check(position)
        self.value &= ~(1 << position)

    def test(self, position: int) -> bool:
        """Return whether one bit is set."""
        self._check(position)
        return bool((self.value >> position) & 1)

    def clear(self) -> None:
        """Zero the whole vector (a single-cycle gang clear in hardware)."""
        self.value = 0

    def is_zero(self) -> bool:
        """True when no bit is set."""
        return self.value == 0

    def popcount(self) -> int:
        """Number of set bits."""
        return popcount(self.value)

    def copy(self) -> "BitVector":
        """An independent copy."""
        return BitVector(self.width, self.value)

    def _binary(self, other: "BitVector", op: str) -> "BitVector":
        if not isinstance(other, BitVector):
            raise TypeError(f"cannot {op} BitVector with {type(other).__name__}")
        if other.width != self.width:
            raise ConfigurationError(
                f"width mismatch: {self.width} vs {other.width}"
            )
        if op == "and":
            return BitVector(self.width, self.value & other.value)
        if op == "or":
            return BitVector(self.width, self.value | other.value)
        return BitVector(self.width, self.value ^ other.value)

    def __and__(self, other: "BitVector") -> "BitVector":
        return self._binary(other, "and")

    def __or__(self, other: "BitVector") -> "BitVector":
        return self._binary(other, "or")

    def __xor__(self, other: "BitVector") -> "BitVector":
        return self._binary(other, "xor")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.width == other.width and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.width, self.value))

    def __len__(self) -> int:
        return self.width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitVector(width={self.width}, popcount={self.popcount()})"
