"""Checkpoint-substrate schemes: Bulk signatures vs an exact-log baseline.

The :class:`~repro.checkpoint.system.CheckpointSystem` owns the one
processor's memory, L1 cache and stack of live checkpoints, and does
all timing and accounting; a scheme supplies only the disambiguation
hooks.  As in :class:`~repro.tm.conflict.TmScheme`, the base hooks are
the exact baseline's behaviour and Bulk overrides them:

* :class:`ExactCheckpointScheme` is the idealised hardware the paper
  compares against: per-checkpoint exact write logs, rollback
  invalidates precisely the discarded epochs' written lines (zero false
  invalidations by construction), commit enumerates one invalidation
  per written line — the Lazy-style cost model of
  :mod:`repro.tm.lazy`.  It has no Set Restriction.
* :class:`BulkCheckpointScheme` is the paper's design (Section 4.5,
  Figure 7): one BDM version context per live checkpoint, rollback by
  signature expansion (which can falsely invalidate aliased lines),
  commit broadcast as one RLE-compressed write signature.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List

from repro.coherence.message import MessageKind
from repro.core.bdm import BulkDisambiguationModule, SetRestrictionAction
from repro.core.rle import rle_encode
from repro.spec.scheme import SpecScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checkpoint.system import CheckpointSystem, EpochRecord

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``SetRestrictionAction.WRITEBACK_NONSPEC`` goes
# through the enum metaclass's ``__getattr__``, several times slower
# than a module global, and the store hook compares them per store and
# the commit hooks pass them per message.
_INVALIDATION = MessageKind.INVALIDATION
_WRITEBACK_NONSPEC = SetRestrictionAction.WRITEBACK_NONSPEC
_COMMIT_SIGNATURE = MessageKind.COMMIT_SIGNATURE


class CheckpointScheme(SpecScheme):
    """Hook surface a checkpoint scheme implements.

    The system is its own one processor, so the hooks receive it alone
    (and ``setup_processor`` receives it as both arguments).  A scheme
    instance serves one system: the scheme table builds a fresh one per
    run.
    """

    def setup_processor(
        self, system: "CheckpointSystem", proc: "CheckpointSystem"
    ) -> None:
        """Allocate the processor's scheme state before the run starts."""

    def on_take(self, system: "CheckpointSystem", record: "EpochRecord") -> None:
        """A checkpoint was taken; ``record`` is not yet on the stack."""

    def record_load(self, system: "CheckpointSystem", byte_address: int) -> None:
        """The newest epoch loaded a word (its exact read set is updated
        by the system)."""

    def prepare_store(self, system: "CheckpointSystem", line_address: int) -> None:
        """Pre-store policy hook (Bulk's Set Restriction), called after
        the line is in the cache and before the newest epoch writes it."""

    def record_store(self, system: "CheckpointSystem", byte_address: int) -> None:
        """The newest epoch stored a word (its log and exact sets are
        updated by the system)."""

    def commit_cleanup(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> None:
        """Release scheme state after the oldest checkpoint committed."""

    def rollback_invalidate(
        self, system: "CheckpointSystem", discarded: List["EpochRecord"]
    ) -> List[int]:
        """Invalidate the discarded epochs' speculative lines (they are
        already off the stack) and return the invalidated line addresses.

        The exact baseline drops exactly the dirty lines those epochs
        wrote."""
        doomed = set().union(*(record.write_lines for record in discarded))
        cache = system.cache
        invalidated = []
        for line_address in sorted(doomed):
            line = cache.lookup(line_address, touch=False)
            if line is not None and line.dirty:
                cache.invalidate(line_address)
                invalidated.append(line_address)
        return invalidated

    @abc.abstractmethod
    def commit_packet(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> int:
        """Charge the oldest checkpoint's commit broadcast; returns its
        size in bytes.  Called before :meth:`commit_cleanup`."""

    def on_rollback(
        self,
        system: "CheckpointSystem",
        discarded: int,
        invalidated: int,
        false_invalidated: int,
    ) -> None:
        """Observability hook after a rollback's cache invalidation."""


class ExactCheckpointScheme(CheckpointScheme):
    """The exact-log baseline the Bulk checkpoint scheme is judged against."""

    name = "Exact"

    def commit_packet(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> int:
        """One enumerated invalidation per written line (the exact log's
        line-grain footprint), as in the Lazy TM commit."""
        total = 0
        for _ in range(len(record.write_lines)):
            total += system.bus.record(_INVALIDATION, is_commit_traffic=True)
        return total


class BulkCheckpointScheme(CheckpointScheme):
    """Checkpoints on Bulk signatures (Section 4.5 / Figure 7).

    The cache holds the speculative data with no checkpoint metadata:
    which dirty lines belong to which checkpoint is derivable from the
    decoded write signatures, exactly as Section 4.5 describes for
    threads.  The newest checkpoint's context is always the BDM's
    running one.
    """

    name = "Bulk"
    #: The processor's BDM, built by :meth:`setup_processor`.
    bdm: BulkDisambiguationModule

    def setup_processor(
        self, system: "CheckpointSystem", proc: "CheckpointSystem"
    ) -> None:
        params = system.params
        self.bdm = BulkDisambiguationModule(
            params.signature_config,
            params.geometry,
            num_contexts=params.max_live_checkpoints,
            backend=system.resolve_sig_backend(),
        )

    def on_take(self, system: "CheckpointSystem", record: "EpochRecord") -> None:
        # The system caps live checkpoints at the BDM's context count.
        record.context = self.bdm.allocate_context(owner=record.checkpoint_id)
        self.bdm.set_running(record.context)

    def record_load(self, system: "CheckpointSystem", byte_address: int) -> None:
        self.bdm.record_load(byte_address)

    def prepare_store(self, system: "CheckpointSystem", line_address: int) -> None:
        action = self.bdm.store_set_action(line_address)
        if action is _WRITEBACK_NONSPEC:
            system.charge_safe_writebacks(
                system.cache, system.cache.set_index(line_address),
                now=system.clock, port=0,
            )
        # CONFLICT: an older checkpoint owns the set.  A single processor
        # cannot squash its own past; fold the epochs together by treating
        # the ownership as inherited (the "merging the two threads" option
        # of Section 4.5 — merging epochs is always safe because rollback
        # discards *suffixes*, and a set owned by an older checkpoint is
        # invalidated by that checkpoint's own signature when it rolls
        # back).

    def record_store(self, system: "CheckpointSystem", byte_address: int) -> None:
        self.bdm.record_store(byte_address)

    def commit_cleanup(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> None:
        # Commit by clearing a signature (Table 2); the committed
        # checkpoint is the running one only when it was the last.
        self.bdm.release_context(record.context)

    def rollback_invalidate(
        self, system: "CheckpointSystem", discarded: List["EpochRecord"]
    ) -> List[int]:
        """Bulk-invalidate through each discarded context's write
        signature, youngest first (safe by delta-exactness, as in a
        squash), then release the contexts."""
        invalidated = self.bdm.squash_invalidate_contexts(
            system.cache, [record.context for record in reversed(discarded)]
        )
        for record in discarded:
            self.bdm.release_context(record.context)
        self.bdm.set_running(system.live[-1].context if system.live else None)
        return invalidated

    def commit_packet(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> int:
        """One RLE-compressed signature, regardless of write-set size."""
        return system.bus.record(
            _COMMIT_SIGNATURE,
            payload_bytes=max(1, len(rle_encode(record.context.write_signature))),
            is_commit_traffic=True,
        )

    def on_rollback(
        self,
        system: "CheckpointSystem",
        discarded: int,
        invalidated: int,
        false_invalidated: int,
    ) -> None:
        system.note_sig_expansion(
            "rollback-invalidate",
            expansions=discarded,
            invalidated=invalidated,
            false_invalidated=false_invalidated,
        )
