"""Exact Lazy TLS conflict detection.

Disambiguation happens when a task commits: the committer's exact write
set is compared, word by word, against every more-speculative active
task.  As in the paper's evaluation, Lazy includes an *exact* analogue of
Partial Overlap ("to have a fair comparison with Bulk"): the first child
is disambiguated against only the words the parent wrote after spawning
it, and the parent's pre-spawn write set flushes the child's cache at
dispatch.

The commit packet enumerates one invalidation per written line — the
baseline Figure 14 normalises Bulk's signature packets against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.coherence.message import MessageKind
from repro.mem.address import byte_to_line
from repro.tls.conflict import TlsScheme
from repro.tls.task import TaskState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tls.system import TlsProcessor, TlsSystem

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``MessageKind.INVALIDATION`` goes through the enum
# metaclass's ``__getattr__``, several times slower than a module
# global, and the commit and spawn hooks pass them per message.
_SPAWN_SIGNATURE = MessageKind.SPAWN_SIGNATURE
_INVALIDATION = MessageKind.INVALIDATION


class TlsLazyScheme(TlsScheme):
    """Exact, commit-time disambiguation with enumerated packets."""

    name = "Lazy"
    overlap_reference = True

    # ------------------------------------------------------------------
    # Dispatch: exact Partial-Overlap cache flush
    # ------------------------------------------------------------------

    def on_dispatch(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        self._spawn_flush(system, proc, state)

    def on_respawn(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        # The replayed spawn command re-broadcasts the parent's pre-spawn
        # write set and re-flushes the child's cache.
        self._spawn_flush(system, proc, state)

    def _spawn_flush(
        self, system: "TlsSystem", proc: "TlsProcessor", state: TaskState
    ) -> None:
        if state.task_id == 0:
            return
        parent = system.tasks[state.task_id - 1]
        if not parent.is_active():
            return
        flushed = False
        for word in parent.prespawn_write_words:
            line_address = byte_to_line(word << 2)
            if system.spawn_flush_line(proc, state, parent, line_address):
                flushed = True
        if flushed or parent.prespawn_write_words:
            system.bus.record(_SPAWN_SIGNATURE, payload_bytes=max(
                1, 4 * len({byte_to_line(w << 2) for w in parent.prespawn_write_words})
            ))

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def commit_packet(self, system: "TlsSystem", state: TaskState) -> int:
        total = 0
        for _ in state.write_lines():
            total += system.bus.record(_INVALIDATION, is_commit_traffic=True)
        return total

    def receiver_conflict(
        self,
        system: "TlsSystem",
        committer: TaskState,
        receiver: TaskState,
    ) -> bool:
        return bool(self.exact_dependence(committer, receiver))
