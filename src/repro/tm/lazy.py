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


class LazyScheme(TmScheme):
    """Exact, commit-time disambiguation with enumerated commit packets."""

    name = "Lazy"

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit_packet(self, system: "TmSystem", proc: TmProcessor) -> int:
        assert proc.txn is not None
        total = 0
        for _ in proc.txn.all_write_lines():
            total += system.bus.record(
                MessageKind.INVALIDATION, is_commit_traffic=True
            )
        return total

    def receiver_conflict(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> Optional[int]:
        assert committer.txn is not None and receiver.txn is not None
        written = committer.txn.all_write_granules()
        for index, section in enumerate(receiver.txn.sections):
            if not written.isdisjoint(section.read_granules) or not (
                written.isdisjoint(section.write_granules)
            ):
                return index
        return None

    def commit_update_receiver(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        assert committer.txn is not None
        for line_address in committer.txn.all_write_lines():
            line = receiver.cache.lookup(line_address, touch=False)
            if line is None:
                continue
            receiver.cache.invalidate(line_address)
            system.stats.commit_invalidations += 1
