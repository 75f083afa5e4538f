"""The Bulk conflict-detection scheme (the paper's contribution).

Per-access work: add the address to the transaction's version context's
R/W signatures in the BDM (plus the current section's signatures when
partial rollback is enabled).  Speculative stores are *silent* — no
invalidations until commit.  The scheme owns every processor's BDM; each
transaction holds its own version context (``TxnState.context``).

Commit: broadcast one RLE-compressed write signature; every receiver
performs bulk disambiguation (Equation 1) against its section signatures
in order (plain Bulk's one section is the context itself), squashing (or
partially rolling back) on a hit, and then bulk invalidation of the
committed signature over its cache (Section 4.3).

Squash: bulk-invalidate the victim's dirty lines using its own write
signature — safe because of delta-exactness and the Set Restriction.

Exact read/write sets maintained by the system serve purely as an oracle
to classify false-positive squashes and false invalidations (Table 7);
no decision consults them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.coherence.message import MessageKind
from repro.core.bdm import (
    BulkDisambiguationModule,
    SetRestrictionAction,
    VersionContext,
)
from repro.core.rle import rle_encode
from repro.core.signature import Signature
from repro.errors import SimulationError
from repro.mem.address import byte_to_line
from repro.tm.conflict import TmScheme
from repro.tm.processor import TmProcessor
from repro.tm.txstate import TxnState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tm.system import TmSystem

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``SetRestrictionAction.CONFLICT`` goes through the
# enum metaclass's ``__getattr__``, several times slower than a module
# global, and the eager check compares them per transactional store.
_CONFLICT = SetRestrictionAction.CONFLICT
_WRITEBACK_NONSPEC = SetRestrictionAction.WRITEBACK_NONSPEC
_COMMIT_SIGNATURE = MessageKind.COMMIT_SIGNATURE


class BulkScheme(TmScheme):
    """Signature-based lazy disambiguation through the BDM."""

    name = "Bulk"
    #: Bulk is lazy: :meth:`eager_check` only resolves the Set
    #: Restriction's store case, so the system skips it for loads.
    eager_checks_loads = False

    #: Batched disambiguation state of the in-flight commit broadcast,
    #: precomputed by a batched backend: ``(flags, section_counts)``
    #: where ``flags`` maps ``(pid, section_index)`` to that section's
    #: Equation 1 result and ``section_counts`` maps pid to the section
    #: count the flags were computed over.  ``None`` = scalar
    #: disambiguation; a missing pid means the receiver joined after
    #: the broadcast (scalar fallback).
    _commit_flags: Optional[tuple] = None

    def __init__(self, partial_rollback: bool = False) -> None:
        self.partial_rollback = partial_rollback
        if partial_rollback:
            # The Bulk-Partial bar of Figure 11, under its own name so its
            # runs don't fold into plain Bulk's per-scheme accounting.
            self.name = "Bulk-Partial"
        #: Each processor's BDM, indexed by pid.
        self._bdms: List[BulkDisambiguationModule] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def setup_processor(self, system: "TmSystem", proc: TmProcessor) -> None:
        threads_per_core = system.params.threads_per_core
        if proc.pid % threads_per_core:
            # Co-resident hardware threads share the core's BDM — each
            # gets its own version context within it.
            bdm = self._bdms[proc.pid - proc.pid % threads_per_core]
        else:
            bdm = BulkDisambiguationModule(
                system.params.signature_config,
                system.params.geometry,
                num_contexts=system.params.bdm_contexts,
                backend=system.resolve_sig_backend(),
            )
        self._bdms.append(bdm)

    def bdm_of(self, proc: TmProcessor) -> BulkDisambiguationModule:
        """The processor's BDM."""
        return self._bdms[proc.pid]

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def on_txn_begin(self, system: "TmSystem", proc: TmProcessor) -> None:
        assert proc.txn is not None
        bdm = self._bdms[proc.pid]
        context = bdm.allocate_context(proc.pid)
        if context is None:
            raise SimulationError(
                f"BDM of processor {proc.pid} is out of version contexts"
            )
        bdm.set_running(context)
        proc.txn.context = context

    # ------------------------------------------------------------------
    # Access hooks
    # ------------------------------------------------------------------

    def eager_check(
        self,
        system: "TmSystem",
        proc: TmProcessor,
        byte_address: int,
        is_store: bool,
    ) -> Optional[int]:
        """Bulk detects conflicts lazily, but the Set Restriction's (0,1)
        case — another version context in this core owns dirty lines in
        the target set — must be resolved *before* the store proceeds.
        To stay livelock-free, the shorter-running of the two
        transactions yields: the owner is squashed, or the requester
        stalls until the owner commits (the "preempting the thread"
        option of Section 4.5)."""
        if not is_store or proc.txn is None:
            return None
        bdm = self._bdms[proc.pid]
        # Context-switch only when the running unit changed (a co-resident
        # thread ran in between).  The skip is exact: a running context is
        # always active, since releasing a context clears ``running``.
        context = proc.txn.context
        if bdm.running is not context:
            bdm.set_running(context)
        line_address = byte_to_line(byte_address)
        action = bdm.store_set_action(line_address)
        if action is not _CONFLICT:
            # The whole Set Restriction is resolved here, in one
            # decision pass per store.
            if action is _WRITEBACK_NONSPEC:
                system.charge_safe_writebacks(
                    proc.cache, proc.cache.set_index(line_address)
                )
            return None
        set_index = proc.cache.set_index(line_address)
        owner_context = bdm.speculative_owner_of_set(set_index)
        if owner_context is None or owner_context.owner is None:
            return None
        system.stats.set_restriction_conflicts += 1
        owner_proc = system.processors[owner_context.owner]
        if self._run_length(owner_proc) > self._run_length(proc) or (
            self._run_length(owner_proc) == self._run_length(proc)
            and owner_proc.pid < proc.pid
        ):
            return owner_proc.pid  # requester stalls (strict order: no cycles)
        system.squash_preempted_context(proc, owner_context)
        # The store proceeds this step: apply the post-squash decision.
        if bdm.store_set_action(line_address) is _WRITEBACK_NONSPEC:
            system.charge_safe_writebacks(proc.cache, set_index)
        return None

    def record_load(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> None:
        # Per-access path: the BDM list is indexed directly (bdm_of adds
        # a frame per recorded access).
        txn = proc.txn
        assert txn is not None
        bdm = self._bdms[proc.pid]
        if bdm.running is not txn.context:
            bdm.set_running(txn.context)
        # The BDM hands back the address's encode mask so a section
        # register records the access without re-encoding it.
        mask = bdm.record_load(byte_address)
        if self.partial_rollback:
            txn.sections[-1].read_signature.add_mask(mask)

    def record_store(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> None:
        txn = proc.txn
        assert txn is not None
        bdm = self._bdms[proc.pid]
        if bdm.running is not txn.context:
            bdm.set_running(txn.context)
        mask = bdm.record_store(byte_address)
        if self.partial_rollback:
            txn.sections[-1].write_signature.add_mask(mask)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit_packet(self, system: "TmSystem", proc: TmProcessor) -> int:
        """One RLE-compressed signature, regardless of write-set size."""
        signature = self._commit_signature(proc)
        payload = len(rle_encode(signature))
        return system.bus.record(
            _COMMIT_SIGNATURE,
            payload_bytes=payload,
            is_commit_traffic=True,
        )

    def _commit_signature(self, proc: TmProcessor) -> Signature:
        """W_1 ∪ ... ∪ W_n of the committing transaction (Figure 8)."""
        assert proc.txn is not None
        return proc.txn.context.write_signature

    def _section_registers(
        self, txn: TxnState
    ) -> List[Tuple[Signature, Signature]]:
        """Each section's (R, W) registers, oldest first.  Only partial
        rollback gives sections registers of their own; plain Bulk's one
        section is the version context."""
        if self.partial_rollback:
            return [
                (section.read_signature, section.write_signature)
                for section in txn.sections
            ]
        context = txn.context
        return [(context.read_signature, context.write_signature)]

    def on_commit_broadcast(
        self, system: "TmSystem", committer: TmProcessor
    ) -> None:
        """Batched disambiguation: with a backend whose bank supports it,
        evaluate Equation 1 against *every* receiver's *per-section*
        registers in one vectorised pass.  The per-section flags are the
        exact scalar results (Equation 1 per section), so
        :meth:`receiver_conflict` reads the first conflicting section
        straight from the matrix pass — its per-section ``intersects``
        scan survives only as the fallback for receivers the broadcast
        did not cover.
        """
        self._commit_flags = None
        backend = system.resolve_sig_backend()
        if not backend.batched:
            return
        committed = self._commit_signature(committer)
        bank = backend.make_bank(committed.config)
        section_counts: dict = {}
        for other in system.processors:
            if other is committer or other.txn is None:
                continue
            registers = self._section_registers(other.txn)
            for index, (read_sig, write_sig) in enumerate(registers):
                bank.add_row((other.pid, index), read_sig, write_sig)
            section_counts[other.pid] = len(registers)
        if len(bank):
            self._commit_flags = (bank.conflict_flags(committed), section_counts)

    def receiver_conflict(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> Optional[int]:
        assert receiver.txn is not None
        state = self._commit_flags
        if state is not None:
            flags, section_counts = state
            count = section_counts.get(receiver.pid)
            if count is not None and count == len(receiver.txn.sections):
                # The broadcast pass covered exactly this receiver's
                # sections; the flags ARE the per-section Equation 1
                # results, so the first set one is the answer.
                for index in range(count):
                    if flags[(receiver.pid, index)]:
                        return index
                return None
        committed_write = self._commit_signature(committer)
        registers = self._section_registers(receiver.txn)
        for index, (read_sig, write_sig) in enumerate(registers):
            if committed_write.intersects(read_sig) or committed_write.intersects(
                write_sig
            ):
                return index
        return None

    def commit_update_receiver(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        """Bulk invalidation of W_C over the receiver's cache."""
        assert committer.txn is not None
        bdm = self._bdms[receiver.pid]
        invalidated, false_invalidated, _, _ = bdm.commit_invalidate(
            receiver.cache,
            self._commit_signature(committer),
            fetch_committed_line=None,
            exact_written_lines=committer.txn.write_granules,
        )
        system.stats.commit_invalidations += invalidated
        system.stats.false_commit_invalidations += false_invalidated
        if system.obs_enabled:
            system.note_sig_expansion(
                "commit-invalidate",
                commit_invalidated=invalidated,
                committer=committer.pid,
                receiver=receiver.pid,
                invalidated=invalidated,
                false_invalidated=false_invalidated,
            )

    def commit_cleanup(self, system: "TmSystem", proc: TmProcessor) -> None:
        assert proc.txn is not None
        self._bdms[proc.pid].release_context(proc.txn.context)

    # ------------------------------------------------------------------
    # Squash
    # ------------------------------------------------------------------

    def squash_cleanup(
        self, system: "TmSystem", proc: TmProcessor, from_section: int
    ) -> None:
        assert proc.txn is not None
        bdm = self._bdms[proc.pid]
        context = proc.txn.context
        if from_section == 0:
            invalidated = bdm.squash_invalidate(proc.cache, context)
            if system.obs_enabled:
                system.note_sig_expansion(
                    "squash-invalidate", proc=proc.pid, invalidated=invalidated
                )
            context.clear()
            return
        # Partial rollback: invalidate only with the union of the
        # discarded sections' write signatures, then rebuild the context's
        # registers from the kept sections.
        make = (
            Signature if bdm.backend is None else bdm.backend.make_signature
        )
        discarded = make(bdm.config)
        for section in proc.txn.sections[from_section:]:
            discarded.union_update(section.write_signature)
        scratch = VersionContext(context.slot, bdm.config, bdm.backend)
        scratch.write_signature = discarded
        invalidated = bdm.squash_invalidate(proc.cache, scratch)
        context.read_signature.clear()
        context.write_signature.clear()
        for section in proc.txn.sections[:from_section]:
            context.read_signature.union_update(section.read_signature)
            context.write_signature.union_update(section.write_signature)
        context.delta_mask = bdm.decoder.decode(context.write_signature)
        system.stats.partial_rollbacks += 1
        if system.obs_enabled:
            system.note_sig_expansion(
                "partial-rollback",
                decode=True,
                proc=proc.pid,
                from_section=from_section,
                invalidated=invalidated,
            )
            # The delta_sets popcount is formatting work; it must not run
            # on the untraced fast path.
            system.trace_event(
                "sig.decode",
                proc=proc.pid,
                delta_sets=bin(context.delta_mask).count("1"),
            )

    # ------------------------------------------------------------------
    # Non-speculative invalidations and overflow
    # ------------------------------------------------------------------

    def nonspec_inval_check(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> bool:
        """Membership test a ∈ R ∨ a ∈ W (Section 4.2)."""
        assert proc.txn is not None
        context = proc.txn.context
        granule = byte_to_line(byte_address)
        return (
            granule in context.read_signature
            or granule in context.write_signature
        )

    def miss_checks_overflow(
        self, system: "TmSystem", proc: TmProcessor, byte_address: int
    ) -> bool:
        """The membership filter of Section 6.2.2 — Bulk's overflow-access
        advantage over Lazy in Table 7."""
        if not proc.has_overflow():
            return False
        assert proc.txn is not None
        return self._bdms[proc.pid].miss_needs_overflow_check(
            proc.txn.context, byte_address
        )

    def overflow_disambiguation_cost(
        self,
        system: "TmSystem",
        committer: TmProcessor,
        receiver: TmProcessor,
    ) -> None:
        """Nothing: Bulk disambiguates on signatures alone, never touching
        the overflowed addresses in memory."""

    def on_spec_eviction(self, system: "TmSystem", proc: TmProcessor) -> None:
        assert proc.txn is not None
        self._bdms[proc.pid].note_speculative_eviction(proc.txn.context)
