"""Exact Lazy conflict detection.

Threads disambiguate when they commit (Section 2, "Lazy schemes"): the
committer broadcasts the *enumerated list* of addresses it wrote, each
receiver compares them against its exact read/write sets, and conflicting
receivers are squashed (committer wins, so forward progress is
guaranteed).  This is the scheme Bulk is closest to — the paper's Figure
10/11 gap between Lazy and Bulk isolates the cost of signature
inexactness, and Figure 14's commit-bandwidth comparison isolates the
benefit of signature commit packets over enumeration.

The commit packet is charged as one invalidation message per written line,
which is also how receivers' stale copies are invalidated (exactly, unlike
Bulk's superset expansion).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.coherence.message import MessageKind
from repro.tm.conflict import TmScheme
from repro.tm.processor import TmProcessor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tm.system import TmSystem

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``MessageKind.INVALIDATION`` goes through the enum
# metaclass's ``__getattr__``, several times slower than a module
# global, and the commit packet passes them per written line.
_INVALIDATION = MessageKind.INVALIDATION


class LazyScheme(TmScheme):
    """Exact, commit-time disambiguation with enumerated commit packets."""

    name = "Lazy"
    eager_checks_loads = False

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit_packet(self, system: "TmSystem", proc: TmProcessor) -> int:
        assert proc.txn is not None
        total = 0
        for _ in proc.txn.write_granules:
            total += system.bus.record(_INVALIDATION, is_commit_traffic=True)
        return total

    def receiver_conflict(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> Optional[int]:
        assert committer.txn is not None and receiver.txn is not None
        # Lazy never opens a second section (its ``partial_rollback`` is
        # False), so the transaction's whole exact sets decide: ``None``
        # exactly when the receiver has no true dependence.
        written = committer.txn.write_granules
        if written.isdisjoint(receiver.txn.read_granules) and (
            written.isdisjoint(receiver.txn.write_granules)
        ):
            return None
        return 0

    def commit_update_receiver(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        assert committer.txn is not None
        for line_address in committer.txn.write_granules:
            line = receiver.cache.lookup(line_address, touch=False)
            if line is None:
                continue
            receiver.cache.invalidate(line_address)
            system.stats.commit_invalidations += 1
