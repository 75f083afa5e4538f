"""The conflict-detection scheme interface of the TLS simulator.

Mirrors :mod:`repro.tm.conflict` but for TLS semantics: in-order task
commit, eager data forwarding, squash propagation to children, Partial
Overlap, and word-grain disambiguation.  As there, the commit-side cache
update and the squash cleanup default to the exact schemes' shared
behaviour, which Bulk overrides.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional, Set

from repro.spec.scheme import SpecScheme
from repro.tls.task import TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tls.system import TlsProcessor, TlsSystem


class TlsScheme(SpecScheme):
    """Strategy object for one TLS conflict-detection scheme.

    Extends :class:`~repro.spec.scheme.SpecScheme` (which supplies
    ``name`` and the cross-substrate hook shape) with TLS semantics: in-
    order task commit, eager data forwarding, squash propagation to
    children, Partial Overlap, and word-grain disambiguation.
    """

    #: Whether the exact-oracle dependence classification should apply the
    #: Partial Overlap exclusion for first children.  True for schemes
    #: that implement overlap (Bulk, Lazy); False for BulkNoOverlap,
    #: whose live-in squashes are *correct* under its own semantics.
    overlap_reference: bool = True

    #: Whether a cache hit on a wrong-version copy re-fetches instead of
    #: consuming the stale value.  True for access-time schemes (Eager),
    #: whose versioned coherence protocol always delivers correct data at
    #: the access — a stale copy can exist only because an *older* task's
    #: fill legally re-created the line after a newer store invalidated
    #: it, and real versioned hardware would miss on it.  Commit-time
    #: schemes keep False: reading stale there is a legal transient the
    #: committer's disambiguation squashes, and the system's
    #: ``pending_stale`` oracle must keep watching for the cases it
    #: misses.
    stale_hit_refetches: bool = False

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------

    def setup_processor(self, system: "TlsSystem", proc: "TlsProcessor") -> None:
        """Called for every processor at system construction."""

    def can_accept_task(self, system: "TlsSystem", proc: "TlsProcessor") -> bool:
        """Whether the processor can take another resident task (Bulk is
        limited by free BDM version contexts; conventional schemes are
        assumed to have version IDs and always accept)."""
        return True

    def on_dispatch(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        """A task begins (or re-begins) executing on a processor."""

    def on_spawn_point(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        """The task's cursor reached its spawn position (each attempt)."""

    def on_respawn(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        """A jointly-squashed child is re-created by its parent's replayed
        spawn.  Partial-Overlap schemes re-broadcast the spawn flush here:
        between the squash and this respawn, older co-resident tasks'
        replay fills may have re-created copies that are stale for the
        child on shadow-excluded words."""

    # ------------------------------------------------------------------
    # Access hooks
    # ------------------------------------------------------------------

    def eager_check_store(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        byte_address: int,
    ) -> Optional[int]:
        """Eager only: id of the least-speculative task that must be
        squashed by this store (children follow automatically), or
        ``None``."""
        return None

    def prepare_store(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        line_address: int,
    ) -> Optional[int]:
        """Pre-store policy hook (Bulk's Set Restriction).

        Returns the task id whose commit this store must wait for (a
        Wr-Wr Set Restriction conflict), or ``None`` to proceed.
        """
        return None

    def record_load(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        byte_address: int,
    ) -> None:
        """A load was performed (exact sets already updated)."""

    def record_store(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        byte_address: int,
    ) -> None:
        """A store was performed (exact sets already updated)."""

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def commit_packet(self, system: "TlsSystem", state: TaskState) -> int:
        """Charge the commit broadcast; returns the packet size in bytes."""

    def on_commit_broadcast(
        self, system: "TlsSystem", committer: TaskState
    ) -> None:
        """Observe the committer's broadcast before any receiver is
        disambiguated.  Batched backends precompute per-receiver conflict
        flags here (one vectorised pass for the whole epoch); the default
        is a no-op."""

    def receiver_conflict(
        self,
        system: "TlsSystem",
        committer: TaskState,
        receiver: TaskState,
    ) -> bool:
        """Commit-time disambiguation of one active, more-speculative
        task against the committer (Lazy and Bulk; Eager returns False)."""
        return False

    def commit_update_cache(
        self,
        system: "TlsSystem",
        committer: TaskState,
        proc: "TlsProcessor",
    ) -> None:
        """Invalidate (and, at word grain, merge) the committer's written
        lines in one processor's cache.

        The exact schemes walk the committer's write lines: a clean copy
        is invalidated, a dirty one holds the receiver's own speculative
        words and is rebuilt exactly from per-word access bits."""
        for line_address in committer.write_lines():
            line = proc.cache.lookup(line_address, touch=False)
            if line is None:
                continue
            if line.dirty:
                system.rebuild_merged_line(proc, line_address)
                system.stats.merged_lines += 1
            else:
                proc.cache.invalidate(line_address)
                system.stats.commit_invalidations += 1

    # ------------------------------------------------------------------
    # Squash and cleanup
    # ------------------------------------------------------------------

    def squash_cleanup(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        """Discard the squashed task's cache footprint: its dirty written
        lines *and* the lines it read (Section 6.3), plus any
        scheme-private state.  The exact schemes invalidate exactly the
        lines the task wrote or read."""
        for line_address in state.write_lines() | state.read_lines():
            proc.cache.invalidate(line_address)

    def on_commit_cleanup(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        """Release scheme state after the task committed."""

    # ------------------------------------------------------------------
    # Exact oracle
    # ------------------------------------------------------------------

    def exact_dependence(
        self, committer: TaskState, receiver: TaskState
    ) -> Set[int]:
        """The exact dependence set (words) an ideal scheme with this
        scheme's overlap semantics would compute — classifies squashes as
        true or false positives."""
        effective = committer.write_log.keys()
        if (
            self.overlap_reference
            and receiver.task_id == committer.task_id + 1
            and committer.shadow_write_words is not None
        ):
            effective = committer.shadow_write_words
        return effective & (receiver.read_words | receiver.write_log.keys())
