"""Exact Eager conflict detection.

Disambiguation happens as each access is performed: the coherence protocol
propagates the request and the remote processors compare it against their
exact read/write sets (Section 2, "Eager schemes").  Conflicts are
resolved requester-wins — the thread that already *holds* the datum in its
speculative sets is squashed — which restarts offenders early (the source
of Eager's slight performance edge in TLS) but is vulnerable to the
Figure 12 pathologies:

* (a) two threads that read-modify-write the same location keep squashing
  each other forever — no forward progress;
* (b) a reader is squashed by a later writer even though committing the
  reader first would have been serialisable.

The paper's footnote 2 mitigation for (a) is implemented: when a pair of
threads squash each other repeatedly, the longer-running one proceeds and
the other stalls until it commits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.coherence.message import MessageKind
from repro.mem.address import byte_to_line
from repro.tm.conflict import TmScheme
from repro.tm.processor import TmProcessor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tm.system import TmSystem

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``MessageKind.INVALIDATION`` goes through the enum
# metaclass's ``__getattr__``, several times slower than a module
# global, and the eager check passes them per conflicting access.
_INVALIDATION = MessageKind.INVALIDATION
_UPGRADE = MessageKind.UPGRADE


class EagerScheme(TmScheme):
    """Exact, access-time disambiguation with livelock mitigation."""

    name = "Eager"

    def __init__(self) -> None:
        #: Consecutive squashes per (aggressor pid, victim pid) pair,
        #: reset when either side commits.  Feeds the mitigation trigger.
        #: The counters deliberately survive squashes: resetting them
        #: there would disarm the livelock mitigation, which is triggered
        #: precisely by *consecutive* mutual squashes.
        self._pair_squashes: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Access-time disambiguation
    # ------------------------------------------------------------------

    def eager_check(
        self,
        system: "TmSystem",
        proc: TmProcessor,
        byte_address: int,
        is_store: bool,
    ) -> Optional[int]:
        line = byte_to_line(byte_address)
        txn = proc.txn
        assert txn is not None
        # Coherence-driven detection only fires on a *request*: once this
        # transaction owns the line (wrote it) or holds it shared (read
        # it), repeat accesses are cache hits and cannot conflict — any
        # intervening remote access would have squashed us first.
        if is_store:
            if line in txn.write_granules:
                return None
        elif line in txn.read_granules or line in txn.write_granules:
            return None
        for other in system.processors:
            if other is proc or other.txn is None:
                continue
            conflict = line in other.txn.write_granules
            if is_store and not conflict:
                conflict = line in other.txn.read_granules
            if not conflict:
                continue
            if self._should_stall(system, proc, other):
                system.stats.mitigation_stalls += 1
                return other.pid
            self._note_squash(proc, other)
            system.squash(
                victim=other,
                from_section=0,
                now=proc.clock,
                # Eager detects one address at a time: the squash's
                # dependence set is that single granule.
                dependence_granules=1,
                false_positive=False,
                cause="eager-conflict",
            )
            if other.has_overflow():
                self.overflow_disambiguation_cost(system, proc, other)
        return None

    def _should_stall(
        self, system: "TmSystem", proc: TmProcessor, other: TmProcessor
    ) -> bool:
        """Footnote-2 mitigation: stall ``proc`` instead of squashing
        ``other`` when forward progress is in doubt — the pair has been
        squashing each other repeatedly, or ``other``'s transaction has
        already been restarted several times (a many-readers-vs-writer
        storm) — and ``other`` is the longer-running thread.  The strict
        longer-running order makes stall cycles impossible."""
        if not system.params.eager_livelock_mitigation:
            return False
        mutual = (
            self._pair_squashes.get((proc.pid, other.pid), 0)
            + self._pair_squashes.get((other.pid, proc.pid), 0)
        )
        struggling = (
            other.txn is not None
            and other.txn.attempts >= system.params.livelock_threshold
        )
        if mutual < system.params.livelock_threshold and not struggling:
            return False
        return self._run_length(other) > self._run_length(proc) or (
            self._run_length(other) == self._run_length(proc)
            and other.pid < proc.pid
        )

    def _note_squash(self, aggressor: TmProcessor, victim: TmProcessor) -> None:
        key = (aggressor.pid, victim.pid)
        self._pair_squashes[key] = self._pair_squashes.get(key, 0) + 1

    def record_store(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> None:
        """Eager schemes gain ownership as they write: the first store of
        this attempt to a line (the line is not yet in the write set)
        invalidates remote copies immediately."""
        line = byte_to_line(byte_address)
        assert proc.txn is not None
        if line in proc.txn.write_granules:
            return
        invalidated_any = False
        for other in system.processors:
            if other is proc:
                continue
            if other.cache.invalidate(line) is not None:
                invalidated_any = True
        if invalidated_any:
            system.bus.record(_INVALIDATION)
        else:
            # Gaining exclusivity still costs an upgrade request.
            system.bus.record(_UPGRADE)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit_packet(self, system: "TmSystem", proc: TmProcessor) -> int:
        """Eager commits are quiet: conflicts were resolved at access time
        and ownership was claimed store by store."""
        self._reset_pairs_of(proc.pid)
        return 0

    def _reset_pairs_of(self, pid: int) -> None:
        for key in [k for k in self._pair_squashes if pid in k]:
            del self._pair_squashes[key]
