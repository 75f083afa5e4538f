"""Cache geometry: size, associativity, line size → number of sets.

Table 5 fixes the evaluated L1 geometries: 16 KB 4-way 64 B lines for TLS
(64 sets) and 32 KB 4-way 64 B lines for TM (128 sets).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.mem.address import BYTES_PER_LINE, line_index_bits


@dataclass(frozen=True)
class CacheGeometry:
    """Immutable description of a cache's shape."""

    size_bytes: int
    associativity: int
    line_bytes: int = BYTES_PER_LINE

    def __post_init__(self) -> None:
        if self.line_bytes != BYTES_PER_LINE:
            raise ConfigurationError(
                f"this model fixes {BYTES_PER_LINE}-byte lines (Table 5); "
                f"got {self.line_bytes}"
            )
        if self.size_bytes <= 0 or self.associativity <= 0:
            raise ConfigurationError("cache size and associativity must be positive")
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigurationError(
                f"cache of {self.size_bytes} B is not divisible into "
                f"{self.associativity}-way sets of {self.line_bytes} B lines"
            )
        # Validate the set count is a power of two (raises otherwise).
        line_index_bits(self.num_sets)

    @property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.associativity * self.line_bytes)

    def set_index(self, line_address: int) -> int:
        """Set index of a line address (its low-order bits)."""
        return line_address & (self.num_sets - 1)


#: Table 5's TLS L1: 16 KB, 4-way, 64 B lines → 64 sets.
TLS_L1_GEOMETRY = CacheGeometry(size_bytes=16 * 1024, associativity=4)

#: Table 5's TM L1: 32 KB, 4-way, 64 B lines → 128 sets.
TM_L1_GEOMETRY = CacheGeometry(size_bytes=32 * 1024, associativity=4)
