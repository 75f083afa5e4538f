"""The conflict-detection scheme interface of the TM simulator.

A scheme decides *how* dependences are detected and enforced; the
:class:`~repro.tm.system.TmSystem` owns everything else (trace stepping,
caches, memory, the bus, squash/restart mechanics).  The three schemes of
the paper's evaluation — exact Eager, exact Lazy, and Bulk — implement
this interface.

All hook methods receive the system so they can charge bus messages,
inspect other processors, and request squashes.  A scheme keeps its own
state: Bulk owns the processors' BDMs and puts each transaction's
version context on its :class:`~repro.tm.txstate.TxnState`.  Where the
two exact schemes behave alike (squash cleanup, non-speculative
invalidations, the overflow walk) the base hook is their shared
behaviour, and Bulk overrides it.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

from repro.mem.address import byte_to_line
from repro.spec.scheme import SpecScheme
from repro.tm.processor import TmProcessor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tm.system import TmSystem


class TmScheme(SpecScheme):
    """Strategy object for one conflict-detection scheme.

    Extends :class:`~repro.spec.scheme.SpecScheme` (which supplies
    ``name`` and the cross-substrate hook shape) with TM's transaction
    lifecycle, access, and overflow hooks.
    """

    #: Closed nesting with partial rollback (Section 6.2.1): nested
    #: TX_BEGIN/TX_END markers open sections, and a conflict past the
    #: first section rolls back only from there.  Bulk-Partial only.
    partial_rollback = False

    # ------------------------------------------------------------------
    # Construction hooks
    # ------------------------------------------------------------------

    def setup_processor(self, system: "TmSystem", proc: TmProcessor) -> None:
        """Called for every processor at system construction."""

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def on_txn_begin(self, system: "TmSystem", proc: TmProcessor) -> None:
        """An outermost transaction began (``proc.txn`` is fresh)."""

    # ------------------------------------------------------------------
    # Access hooks
    # ------------------------------------------------------------------

    #: Whether :meth:`eager_check` can act on *loads*.  The schemes that
    #: disambiguate at commit never do (Lazy checks nothing at access
    #: time, Bulk only screens stores for the Set Restriction), so the
    #: system skips the per-load hook call entirely when this is
    #: ``False``.
    eager_checks_loads = True

    def eager_check(
        self,
        system: "TmSystem",
        proc: TmProcessor,
        byte_address: int,
        is_store: bool,
    ) -> Optional[int]:
        """Pre-access conflict check (Eager only).

        May squash other processors through the system.  Returning a pid
        stalls ``proc`` until that processor commits or squashes (the
        livelock mitigation of footnote 2); returning ``None`` lets the
        access proceed.
        """
        return None

    @staticmethod
    def _run_length(proc: TmProcessor) -> int:
        """Trace events the processor's transaction has run (0 outside
        one): who yields when two transactions must not both proceed."""
        if proc.txn is None:
            return 0
        return proc.cursor - proc.txn.start_cursor

    def record_load(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> None:
        """A speculative load was performed.  Called before the
        transaction's exact record takes the access."""

    def record_store(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> None:
        """A speculative store was performed.  Called before the
        transaction's exact record and write log take the access, so
        ``proc.txn.write_granules`` still tells whether this attempt
        wrote the line before."""

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def commit_packet(self, system: "TmSystem", proc: TmProcessor) -> int:
        """Charge the committer's broadcast onto the bus.

        Returns the packet size in bytes (for commit-slot arbitration).
        """

    def on_commit_broadcast(
        self, system: "TmSystem", committer: TmProcessor
    ) -> None:
        """Observe the committer's broadcast before any receiver is
        disambiguated.  Batched backends precompute per-receiver conflict
        flags here (one vectorised pass for the whole epoch); the default
        is a no-op."""

    def receiver_conflict(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> Optional[int]:
        """Disambiguate a receiver against the committer.

        Returns the index of the first conflicting section (0 for
        unsectioned transactions) or ``None`` for no conflict.  Lazy
        schemes implement this; Eager detects at access time and returns
        ``None``.
        """
        return None

    def commit_update_receiver(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        """Invalidate the committer's written lines in a receiver's cache
        (called after any squash of the receiver was handled)."""

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------

    def squash_cleanup(
        self,
        system: "TmSystem",
        proc: TmProcessor,
        from_section: int,
    ) -> None:
        """Discard speculative cache state for sections >= ``from_section``
        (``0`` means the whole transaction) and repair scheme state.

        The exact schemes drop every dirty line the transaction wrote,
        whatever ``from_section`` is."""
        assert proc.txn is not None
        cache = proc.cache
        for line_address in proc.txn.write_granules:
            line = cache.lookup(line_address, touch=False)
            if line is not None and line.dirty:
                cache.invalidate(line_address)

    def commit_cleanup(self, system: "TmSystem", proc: TmProcessor) -> None:
        """Release scheme state after a successful commit."""

    # ------------------------------------------------------------------
    # Non-speculative invalidations and overflow
    # ------------------------------------------------------------------

    def nonspec_inval_check(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> bool:
        """Whether an incoming non-speculative invalidation for
        ``byte_address`` must squash ``proc``'s transaction: exactly when
        the line is in its read or write set."""
        txn = proc.txn
        assert txn is not None
        line = byte_to_line(byte_address)
        return line in txn.read_granules or line in txn.write_granules

    def miss_checks_overflow(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> bool:
        """Whether a local miss must consult the overflow area.  A
        conventional scheme has no membership filter: every miss of an
        overflowed transaction must search the overflow structure."""
        return proc.has_overflow()

    def overflow_disambiguation_cost(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        """Charge overflow-area traffic incurred by disambiguating a
        commit against a receiver that has spilled lines.

        Conventional schemes walk the overflowed addresses (the VTM-style
        XADT search): one access per overflowed line.  Bulk overrides
        this with nothing ("the overflowed addresses in memory are not
        accessed when Bulk disambiguates threads").
        """
        area = receiver.overflow_area
        if area is None or not area.allocated:
            return
        walked = area.line_count
        if walked:
            system.charge_overflow_access(walked)

    def on_spec_eviction(self, system: "TmSystem", proc: TmProcessor) -> None:
        """A dirty speculative line left the cache for the overflow area."""
