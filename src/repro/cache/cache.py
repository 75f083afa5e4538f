"""The set-associative write-back cache.

The cache is a passive structure: it answers lookups, accepts fills, and
reports evictions.  *Where* evicted dirty data goes (memory or a
speculative overflow area) and *whether* an access is legal (Set
Restriction, speculative-data nacks) are decided by the layer above — the
BDM plus the protocol glue — exactly as in the paper's hardware split.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Sequence

from repro.cache.geometry import CacheGeometry
from repro.cache.line import CacheLine
from repro.errors import SimulationError


class Cache:
    """A set-associative, write-back, write-allocate cache with LRU."""

    __slots__ = ("geometry", "_sets", "_set_mask", "_associativity")

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        # The geometry's num_sets/set_index are derived properties (a
        # division per call); lookup runs per memory access, so the
        # power-of-two mask and the associativity are pinned here once.
        self._set_mask = geometry.num_sets - 1
        self._associativity = geometry.associativity
        # One OrderedDict per set: line_address -> CacheLine, most recently
        # used last.
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(geometry.num_sets)
        ]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def set_index(self, line_address: int) -> int:
        """Set index of a line address."""
        return line_address & self._set_mask

    def lookup(self, line_address: int, touch: bool = True) -> Optional[CacheLine]:
        """Find a line; optionally refresh its LRU position."""
        cache_set = self._sets[line_address & self._set_mask]
        line = cache_set.get(line_address)
        if line is not None and touch:
            cache_set.move_to_end(line_address)
        return line

    def contains(self, line_address: int) -> bool:
        """Presence test without touching LRU state."""
        return line_address in self._sets[line_address & self._set_mask]

    # ------------------------------------------------------------------
    # Fill and eviction
    # ------------------------------------------------------------------

    def fill(
        self,
        line_address: int,
        words: Sequence[int],
        dirty: bool = False,
    ) -> Optional[CacheLine]:
        """Insert a line, evicting the LRU victim if the set is full.

        Returns the evicted line (the caller decides where its data goes),
        or ``None`` if no eviction was needed.  Filling an already-present
        line is an error — callers must use :meth:`lookup` first.
        """
        index = line_address & self._set_mask
        cache_set = self._sets[index]
        if line_address in cache_set:
            raise SimulationError(
                f"fill of line 0x{line_address:x} already present in set {index}"
            )
        victim: Optional[CacheLine] = None
        if len(cache_set) >= self._associativity:
            _, victim = cache_set.popitem(last=False)
        cache_set[line_address] = CacheLine(line_address, words, dirty)
        return victim

    def invalidate(self, line_address: int) -> Optional[CacheLine]:
        """Remove a line, returning it (or ``None`` if absent)."""
        return self._sets[line_address & self._set_mask].pop(line_address, None)

    def clean(self, line_address: int) -> None:
        """Clear a line's dirty bit (after a writeback or downgrade)."""
        line = self.lookup(line_address, touch=False)
        if line is None:
            raise SimulationError(
                f"clean of absent line 0x{line_address:x}"
            )
        line.dirty = False

    # ------------------------------------------------------------------
    # Iteration (used by signature expansion and the protocol glue)
    # ------------------------------------------------------------------

    def lines_in_set(self, set_index: int) -> List[CacheLine]:
        """All valid lines in one set (a stable snapshot list).

        Returning a list, not a view, lets callers invalidate lines while
        iterating — exactly what bulk invalidation does.
        """
        return list(self._sets[set_index].values())

    def dirty_lines_in_set(self, set_index: int) -> List[CacheLine]:
        """The dirty lines of one set."""
        return [line for line in self._sets[set_index].values() if line.dirty]

    def all_lines(self) -> Iterator[CacheLine]:
        """Every valid line in the cache."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def valid_line_count(self) -> int:
        """Number of valid lines currently cached."""
        return sum(len(cache_set) for cache_set in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.geometry.size_bytes // 1024} KB, "
            f"{self.geometry.associativity}-way, "
            f"{self.valid_line_count()} lines valid)"
        )
