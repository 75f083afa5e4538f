"""The Bulk TLS scheme: signatures, Partial Overlap, word-grain merging.

All of Section 6.3's TLS extensions are implemented:

* squashed tasks bulk-invalidate the lines they **read** as well as the
  ones they wrote (their data may have been forwarded from a squashed
  predecessor);
* **Partial Overlap** (Figure 9): at the spawn point a shadow write
  signature W_sh starts accumulating alongside W; the committing task
  sends both, its first child disambiguates against W_sh, everyone else
  against W; the spawn command carries the parent's current W, which
  bulk-invalidates the clean matching lines in the child's cache before
  it starts.

Constructed with ``partial_overlap=False`` this is the BulkNoOverlap
configuration of Figure 10 (17% slower in the paper, because SPECint
tasks read many live-ins their parent produced just before spawning
them).

Word-grain commit merging uses the BDM's Updated Word Bitmask unit
(Section 4.4) — the committed line is fetched and the receiver's
locally-written words are patched in.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.coherence.message import MessageKind
from repro.core.bdm import (
    BulkDisambiguationModule,
    SetRestrictionAction,
    VersionContext,
)
from repro.core.disambiguation import disambiguate
from repro.core.expansion import expand_signature
from repro.core.rle import rle_encode
from repro.core.signature import Signature
from repro.errors import SimulationError
from repro.tls.conflict import TlsScheme
from repro.tls.task import TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tls.system import TlsProcessor, TlsSystem


class TlsBulkScheme(TlsScheme):
    """Signature-based lazy TLS disambiguation through per-processor BDMs."""

    def __init__(self, partial_overlap: bool = True) -> None:
        self.partial_overlap = partial_overlap
        self.overlap_reference = partial_overlap
        self.name = "Bulk" if partial_overlap else "BulkNoOverlap"
        #: task id -> snapshot of the parent's W at the spawn point (what
        #: the spawn command carries for the child's cache flush).
        self._spawn_write_snapshot: Dict[int, Signature] = {}
        #: Per-receiver Equation 1 results of the in-flight commit
        #: broadcast against the full W, precomputed by a batched
        #: backend (``None`` = scalar disambiguation).
        self._commit_flags: Optional[Dict[int, bool]] = None

    # ------------------------------------------------------------------
    # BDM plumbing
    # ------------------------------------------------------------------

    def setup_processor(self, system: "TlsSystem", proc: "TlsProcessor") -> None:
        proc.scheme_state["bdm"] = BulkDisambiguationModule(
            system.params.signature_config,
            system.params.geometry,
            num_contexts=system.params.bdm_contexts,
            backend=system.resolve_sig_backend(),
        )
        proc.scheme_state["ctx"] = {}

    @staticmethod
    def bdm_of(proc: "TlsProcessor") -> BulkDisambiguationModule:
        """The processor's BDM."""
        return proc.scheme_state["bdm"]

    def ctx_of(self, proc: "TlsProcessor", task_id: int) -> VersionContext:
        """The BDM version context holding a resident task's signatures."""
        context = proc.scheme_state["ctx"].get(task_id)
        if context is None:
            raise SimulationError(
                f"task {task_id} has no BDM context on processor {proc.pid}"
            )
        return context

    def can_accept_task(self, system: "TlsSystem", proc: "TlsProcessor") -> bool:
        contexts = self.bdm_of(proc).contexts
        return any(not context.active for context in contexts)

    # ------------------------------------------------------------------
    # Dispatch and spawn
    # ------------------------------------------------------------------

    def on_dispatch(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        bdm = self.bdm_of(proc)
        contexts = proc.scheme_state["ctx"]
        context = contexts.get(state.task_id)
        if context is None:
            context = bdm.allocate_context(state.task_id)
            if context is None:
                raise SimulationError(
                    f"BDM of processor {proc.pid} is out of version contexts"
                )
            contexts[state.task_id] = context
        bdm.set_running(context)
        self._spawn_flush(system, proc, state)

    def on_respawn(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        # The replayed spawn command re-broadcasts the parent's spawn-time
        # W signature (re-snapshotted by on_spawn_point during the
        # parent's replay) and re-flushes the child's cache.
        self._spawn_flush(system, proc, state)

    def _spawn_flush(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        if not self.partial_overlap or state.task_id == 0:
            return
        # Extension 3 of Section 6.3: flush lines matching the parent's
        # spawn-time W from the child's cache, so live-ins miss and are
        # forwarded fresh from the parent (stale dirty copies included —
        # see TlsSystem.spawn_flush_line).
        snapshot = self._spawn_write_snapshot.get(state.task_id)
        if snapshot is None:
            return
        bdm = self.bdm_of(proc)
        parent = system.tasks[state.task_id - 1]
        payload = len(rle_encode(snapshot))
        system.bus.record(MessageKind.SPAWN_SIGNATURE, payload_bytes=max(1, payload))
        flushed = 0
        for _, line in expand_signature(snapshot, proc.cache, bdm.decoder):
            if system.spawn_flush_line(proc, state, parent, line.line_address):
                flushed += 1
        if system.obs_enabled:
            system.note_sig_expansion(
                "spawn-flush",
                task=state.task_id,
                proc=proc.pid,
                invalidated=flushed,
            )

    def on_spawn_point(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        # The exact shadow set is maintained by the system for the oracle
        # in all configurations; the *signature* shadow only exists under
        # Partial Overlap.  Anchoring the shadow at the spawn crossing is
        # sound across restarts because a jointly-squashed child is only
        # re-created when the replayed parent crosses the spawn again.
        if not self.partial_overlap:
            return
        context = self.ctx_of(proc, state.task_id)
        context.start_shadow()
        self._spawn_write_snapshot[state.task_id + 1] = (
            context.write_signature.copy()
        )

    # ------------------------------------------------------------------
    # Access hooks
    # ------------------------------------------------------------------

    def prepare_store(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        line_address: int,
    ) -> Optional[int]:
        bdm = self.bdm_of(proc)
        bdm.set_running(self.ctx_of(proc, state.task_id))
        action = bdm.store_set_action(line_address)
        if action is SetRestrictionAction.PROCEED:
            return None
        if action is SetRestrictionAction.WRITEBACK_NONSPEC:
            set_index = proc.cache.set_index(line_address)
            system.charge_safe_writebacks(proc.cache, set_index)
            return None
        # Wr-Wr conflict: a preempted (waiting) task owns dirty lines in
        # this set.  The more speculative task — the storer — is squashed
        # and gated until the owner commits (Section 4.5's resolution as
        # evaluated in Table 6).
        system.stats.wr_wr_conflicts += 1
        set_index = proc.cache.set_index(line_address)
        owner = bdm.speculative_owner_of_set(set_index)
        if owner is None or owner.owner is None:
            return None
        return owner.owner

    def record_load(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        byte_address: int,
    ) -> None:
        # Per-access path: the scheme-state dict is probed directly
        # (bdm_of/ctx_of add two frames per recorded access).
        scheme_state = proc.scheme_state
        bdm = scheme_state["bdm"]
        context = scheme_state["ctx"].get(state.task_id)
        if context is None:
            raise SimulationError(
                f"task {state.task_id} has no BDM context on processor "
                f"{proc.pid}"
            )
        bdm.set_running(context)
        bdm.record_load(byte_address)

    def record_store(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        byte_address: int,
    ) -> None:
        scheme_state = proc.scheme_state
        bdm = scheme_state["bdm"]
        context = scheme_state["ctx"].get(state.task_id)
        if context is None:
            raise SimulationError(
                f"task {state.task_id} has no BDM context on processor "
                f"{proc.pid}"
            )
        bdm.set_running(context)
        bdm.record_store(byte_address)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit_packet(self, system: "TlsSystem", state: TaskState) -> int:
        assert state.proc is not None
        proc = system.processors[state.proc]
        context = self.ctx_of(proc, state.task_id)
        total = system.bus.record(
            MessageKind.COMMIT_SIGNATURE,
            payload_bytes=max(1, len(rle_encode(context.write_signature))),
            is_commit_traffic=True,
        )
        if self.partial_overlap and context.shadow_write_signature is not None:
            # "When a thread commits, it sends both its write signature W
            # and its shadow one Wsh" (Figure 9).
            total += system.bus.record(
                MessageKind.COMMIT_SIGNATURE,
                payload_bytes=max(
                    1, len(rle_encode(context.shadow_write_signature))
                ),
                is_commit_traffic=True,
            )
        return total

    def _signature_against(
        self, system: "TlsSystem", committer: TaskState, receiver: TaskState
    ) -> Signature:
        assert committer.proc is not None
        proc = system.processors[committer.proc]
        context = self.ctx_of(proc, committer.task_id)
        if (
            self.partial_overlap
            and receiver.task_id == committer.task_id + 1
            and context.shadow_write_signature is not None
        ):
            return context.shadow_write_signature
        return context.write_signature

    def on_commit_broadcast(
        self, system: "TlsSystem", committer: TaskState
    ) -> None:
        """Batched disambiguation: with a backend whose bank supports it,
        evaluate Equation 1 against every active receiver in one
        vectorised pass, using the full write signature W.  The flags
        are the full per-receiver results: every receiver except the
        committer's first child disambiguates against exactly W, so
        :meth:`receiver_conflict` returns the flag directly either way.
        Only the first child under Partial Overlap re-evaluates — its
        proper signature is the shadow W_sh ⊆ W (Figure 9), for which
        the W-based flag is exact when clear but only a superset when
        set.
        """
        self._commit_flags = None
        backend = system.resolve_sig_backend()
        if not backend.batched:
            return
        assert committer.proc is not None
        committer_proc = system.processors[committer.proc]
        committed = self.ctx_of(
            committer_proc, committer.task_id
        ).write_signature
        bank = backend.make_bank(committed.config)
        for other in system.active_tasks():
            if other.task_id <= committer.task_id or other.proc is None:
                continue
            context = self.ctx_of(system.processors[other.proc], other.task_id)
            bank.add_row(
                other.task_id, context.read_signature, context.write_signature
            )
        if len(bank):
            self._commit_flags = bank.conflict_flags(committed)

    def receiver_conflict(
        self,
        system: "TlsSystem",
        committer: TaskState,
        receiver: TaskState,
    ) -> bool:
        assert receiver.proc is not None
        flags = self._commit_flags
        if flags is not None:
            flag = flags.get(receiver.task_id)
            if flag is False:
                return False
            if flag is True and not (
                self.partial_overlap
                and receiver.task_id == committer.task_id + 1
            ):
                # Exact: this receiver disambiguates against the full W
                # the batched pass used.  The first child re-evaluates
                # below against the shadow W_sh ⊆ W, for which a set
                # W-flag is only a superset.
                return True
        receiver_proc = system.processors[receiver.proc]
        context = self.ctx_of(receiver_proc, receiver.task_id)
        committed_write = self._signature_against(system, committer, receiver)
        return bool(
            disambiguate(
                committed_write, context.read_signature, context.write_signature
            )
        )

    def commit_update_cache(
        self,
        system: "TlsSystem",
        committer: TaskState,
        proc: "TlsProcessor",
    ) -> None:
        assert committer.proc is not None
        committer_proc = system.processors[committer.proc]
        committer_ctx = self.ctx_of(committer_proc, committer.task_id)
        bdm = self.bdm_of(proc)
        invalidated, false_invalidated, merged, writeback_invalidated = (
            bdm.commit_invalidate(
                proc.cache,
                committer_ctx.write_signature,
                fetch_committed_line=system.memory.load_line,
                exact_written_lines=committer.write_lines(),
                # Word-granularity TLS needs the writeback-invalidate
                # rule for non-speculative dirty lines the committer
                # partially overwrote (see
                # BulkDisambiguationModule.commit_invalidate).
                invalidate_nonspec_dirty=True,
            )
        )
        system.stats.commit_invalidations += invalidated
        system.stats.merged_lines += merged
        system.stats.false_commit_invalidations += false_invalidated
        for _ in range(writeback_invalidated):
            system.bus.record(MessageKind.WRITEBACK)
        if system.obs_enabled:
            system.note_sig_expansion(
                "commit-invalidate",
                commit_invalidated=invalidated,
                committer=committer.task_id,
                receiver_proc=proc.pid,
                invalidated=invalidated,
                merged=merged,
                false_invalidated=false_invalidated,
            )

    # ------------------------------------------------------------------
    # Squash and cleanup
    # ------------------------------------------------------------------

    def squash_cleanup(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        bdm = self.bdm_of(proc)
        context = self.ctx_of(proc, state.task_id)
        invalidated = bdm.squash_invalidate(
            proc.cache, context, invalidate_read_lines=True
        )
        context.clear()
        if system.obs_enabled:
            system.note_sig_expansion(
                "squash-invalidate",
                task=state.task_id,
                proc=proc.pid,
                invalidated=invalidated,
            )

    def on_commit_cleanup(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        bdm = self.bdm_of(proc)
        contexts = proc.scheme_state["ctx"]
        context = contexts.pop(state.task_id, None)
        if context is not None:
            bdm.release_context(context)
        self._spawn_write_snapshot.pop(state.task_id + 1, None)
