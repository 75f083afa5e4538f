"""Exact Eager TLS conflict detection.

Stores propagate immediately through the coherence protocol; any
more-speculative active task that has already read or written the word is
squashed on the spot (together with its children).  Because violations
restart offenders as early as possible, Eager wastes the least work —
Figure 10 shows it as the fastest scheme, and the paper attributes most
of the Eager→Lazy gap to exactly this.

Eager needs no Partial Overlap machinery: a parent's pre-spawn store
cannot conflict with a child that does not exist yet.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.coherence.message import MessageKind
from repro.mem.address import byte_to_line, byte_to_word
from repro.tls.conflict import TlsScheme
from repro.tls.task import TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tls.system import TlsProcessor, TlsSystem

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``MessageKind.INVALIDATION`` goes through the enum
# metaclass's ``__getattr__``, several times slower than a module
# global, and the store check passes them per invalidating store.
_INVALIDATION = MessageKind.INVALIDATION


class TlsEagerScheme(TlsScheme):
    """Exact, store-time disambiguation."""

    name = "Eager"
    overlap_reference = True
    stale_hit_refetches = True

    # ------------------------------------------------------------------
    # Store-time disambiguation
    # ------------------------------------------------------------------

    def eager_check_store(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        byte_address: int,
    ) -> Optional[int]:
        word = byte_to_word(byte_address)
        victim: Optional[int] = None
        for other in system.active_tasks():
            if other.task_id <= state.task_id:
                continue
            if word in other.read_words or word in other.write_log:
                if victim is None or other.task_id < victim:
                    victim = other.task_id
        return victim

    def record_store(
        self,
        system: "TlsSystem",
        proc: "TlsProcessor",
        state: TaskState,
        byte_address: int,
    ) -> None:
        """Eager stores invalidate remote copies immediately.

        Unlike TM, ownership cannot be cached across the transaction: a
        more-speculative task may legally *re-fill* the line between two
        stores (eager forwarding reads spec data without squashing the
        writer), so every store must re-check for remote copies — exactly
        what a coherence upgrade would do.  The invalidation message is
        charged only when sharers actually exist.
        """
        line_address = byte_to_line(byte_address)
        any_copy = False
        for other_proc in system.processors:
            if other_proc is proc:
                continue
            if other_proc.cache.invalidate(line_address) is not None:
                any_copy = True
        if any_copy:
            system.bus.record(_INVALIDATION)

    # ------------------------------------------------------------------
    # Commit: quiet
    # ------------------------------------------------------------------

    def commit_packet(self, system: "TlsSystem", state: TaskState) -> int:
        """Quiet: remote copies were invalidated store by store, so the
        commit-side cache update (the base hook) only refreshes copies
        forwarded *after* the stores."""
        return 0
