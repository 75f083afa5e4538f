"""Per-thread speculative overflow area (paper Section 6.2.2).

When a speculative thread's dirty lines are evicted from the cache (or the
whole thread is displaced on a context switch), conventional TM schemes such
as UTM and VTM move them to an *overflow area* in memory whose addresses
must still be consulted during disambiguation.  Bulk keeps the overflow
area, but because disambiguation is performed exclusively on signatures,
the overflowed *addresses* are never walked at disambiguation time; the
area is accessed only

* to service a cache miss whose address may live there (the BDM first
  screens the miss with the membership test ``a in W`` so most misses skip
  the area entirely), and
* to deallocate it wholesale when the owning thread squashes or commits.

The TM system charges those accesses to ``TmStats.overflow_area_accesses``
(the *Overflow Accesses Bulk/Lazy* column of Table 7); the area itself only
holds the lines.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import OverflowAreaError


class OverflowArea:
    """In-memory spill area holding one thread's overflowed speculative lines.

    Lines are stored at line-address granularity with their full word data,
    mirroring how a hardware scheme would spill ``(tag, data)`` pairs.
    """

    __slots__ = ("owner", "_lines", "allocated")

    def __init__(self, owner: int) -> None:
        #: Thread id owning this area.
        self.owner = owner
        self._lines: Dict[int, Tuple[int, ...]] = {}
        #: Whether the area is live.  Deallocated areas reject operations.
        self.allocated = True

    def spill(self, line_address: int, words: Tuple[int, ...]) -> None:
        """Move an evicted dirty speculative line into the area."""
        self._check_live()
        self._lines[line_address] = tuple(words)

    def lookup(self, line_address: int) -> Optional[Tuple[int, ...]]:
        """Fetch an overflowed line, if present."""
        self._check_live()
        return self._lines.get(line_address)

    def drain(self) -> Dict[int, Tuple[int, ...]]:
        """Remove and return all overflowed lines (used at commit)."""
        self._check_live()
        lines, self._lines = self._lines, {}
        return lines

    def deallocate(self) -> int:
        """Discard the area's contents (used at squash).

        Returns the number of lines discarded.
        """
        self._check_live()
        discarded = len(self._lines)
        self._lines.clear()
        self.allocated = False
        return discarded

    @property
    def line_count(self) -> int:
        """Number of lines currently overflowed."""
        return len(self._lines)

    def is_empty(self) -> bool:
        """True when no lines are spilled here."""
        return not self._lines

    def _check_live(self) -> None:
        if not self.allocated:
            raise OverflowAreaError(
                f"overflow area of thread {self.owner} used after deallocation"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OverflowArea(owner={self.owner}, lines={len(self._lines)})"
        )
