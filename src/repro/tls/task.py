"""TLS tasks: static traces and per-attempt runtime state.

A :class:`TlsTask` is the static description of one task carved out of
the sequential program: its event trace and the cursor position at which
it spawns its successor.  A :class:`TaskState` is the runtime incarnation:
cursor, exact sets, write log, squash bookkeeping.  Tasks commit strictly
in task-id order — the sequential semantics TLS must preserve.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Sequence, Set

from repro.core.bdm import VersionContext
from repro.errors import TraceError
from repro.mem.address import WORD_SHIFT, WORD_TO_LINE_SHIFT
from repro.sim.trace import EventKind, MemEvent


class TlsTask:
    """Static description of one speculative task."""

    __slots__ = ("task_id", "events", "spawn_cursor")

    def __init__(
        self,
        task_id: int,
        events: Sequence[MemEvent],
        spawn_cursor: int = 0,
    ) -> None:
        self.task_id = task_id
        self.events = tuple(events)
        for event in self.events:
            kind = event.kind
            if kind is _TX_BEGIN or kind is _TX_END:
                raise TraceError("TLS task traces have no transaction markers")
        if not 0 <= spawn_cursor <= len(self.events):
            raise TraceError(
                f"task {task_id}: spawn cursor {spawn_cursor} outside trace "
                f"of {len(self.events)} events"
            )
        #: Cursor position at which the task spawns its successor.  The
        #: spawn fires when execution *reaches* this index (each attempt).
        self.spawn_cursor = spawn_cursor

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TlsTask(id={self.task_id}, events={len(self.events)})"


class TaskStatus(enum.Enum):
    """Lifecycle of a task within a TLS run."""

    #: Not yet dispatched to a processor.
    PENDING = "pending"
    #: Executing (or runnable) on its processor.
    RUNNING = "running"
    #: Finished executing, waiting for its turn to commit.
    WAITING = "waiting"
    #: Committed; its state is architectural.
    COMMITTED = "committed"


# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``TaskStatus.RUNNING`` goes through the enum
# metaclass's ``__getattr__``, several times slower than a module
# global, and the task code compares them per event of a new task and
# per active-task test.
_TX_BEGIN = EventKind.TX_BEGIN
_TX_END = EventKind.TX_END
_PENDING = TaskStatus.PENDING
_RUNNING = TaskStatus.RUNNING
_WAITING = TaskStatus.WAITING


class TaskState:
    """Runtime state of one task across squash/restart attempts."""

    __slots__ = (
        "task",
        "task_id",
        "status",
        "proc",
        "cursor",
        "attempts",
        "spawn_signalled",
        "write_log",
        "read_words",
        "_write_lines",
        "shadow_write_words",
        "prespawn_write_words",
        "pending_stale",
        "finish_clock",
        "blocked_on",
        "respawn_pending",
        "context",
    )

    def __init__(self, task: TlsTask) -> None:
        self.task = task
        #: Static task id (also the commit-order position).
        self.task_id = task.task_id
        self.status = _PENDING
        self.proc: Optional[int] = None
        self.cursor = 0
        self.attempts = 0
        #: Whether the successor has been made spawnable (sticky across
        #: restarts — a spawned child is never unspawned).
        self.spawn_signalled = False
        #: word address -> value (authoritative speculative data); its
        #: keys are the exact write set, word granularity.
        self.write_log: Dict[int, int] = {}
        #: Exact read set, word granularity.
        self.read_words: Set[int] = set()
        # Lines of the write set, maintained incrementally (the forwarding
        # overlay and the dirty-line probes test membership per access).
        self._write_lines: Set[int] = set()
        #: Words written at or after the spawn point in the *current*
        #: attempt (``None`` before the spawn point is reached) — the
        #: exact analogue of the shadow signature W_sh of Figure 9.
        self.shadow_write_words: Optional[Set[int]] = None
        #: Exact snapshot of the write set at the spawn point (what the
        #: spawn command carries to the child for cache flushing).
        self.prespawn_write_words: Set[int] = set()
        #: Stale-value oracle: words whose cached copy disagreed with the
        #: architecturally expected value at load time.  Must be emptied
        #: by a squash before the task may commit.
        self.pending_stale: Set[int] = set()
        #: Local clock at which the last event finished (valid once
        #: WAITING).
        self.finish_clock = 0
        #: Wr-Wr Set Restriction gate: the task id whose commit this task
        #: must wait for before re-running (Bulk only).
        self.blocked_on: Optional[int] = None
        #: Re-spawn gate: set when this task was squashed together with
        #: its parent.  The squash destroyed the child; it is re-created
        #: only when the re-executing parent crosses its spawn point
        #: again — which is also what makes anchoring the shadow write
        #: set at the spawn point sound across restarts.
        self.respawn_pending = False
        #: The BDM version context holding the task's signatures from
        #: dispatch to commit (Bulk only; kept across squashes).
        self.context: Optional[VersionContext] = None

    # ------------------------------------------------------------------

    def is_active(self) -> bool:
        """Dispatched and not yet committed."""
        status = self.status
        return status is _RUNNING or status is _WAITING

    def record_load(self, byte_address: int) -> None:
        """Add a load to the exact read set."""
        # Shift inlined (== byte_to_word): runs on every TLS load.
        self.read_words.add(byte_address >> WORD_SHIFT)

    def record_store(self, byte_address: int, value: int) -> None:
        """Add a store to the write log and the exact write sets."""
        word = byte_address >> WORD_SHIFT
        self._write_lines.add(word >> WORD_TO_LINE_SHIFT)
        self.write_log[word] = value & 0xFFFFFFFF
        if self.shadow_write_words is not None:
            self.shadow_write_words.add(word)

    def start_shadow(self) -> None:
        """Begin (or restart) the exact shadow write set at the spawn."""
        self.shadow_write_words = set()
        self.prespawn_write_words = set(self.write_log)

    def write_lines(self) -> Set[int]:
        """Line addresses touched by the write set (maintained
        incrementally; do not mutate the returned set)."""
        return self._write_lines

    def read_lines(self) -> Set[int]:
        """Line addresses touched by the read set."""
        return {word >> WORD_TO_LINE_SHIFT for word in self.read_words}

    def reset_for_restart(self) -> None:
        """Squash: discard all speculative state, rewind to the start.

        The shadow write set restarts at the next spawn-point crossing.
        This is sound because a squash that includes the parent also
        destroys the child, which is only re-created when the replayed
        parent crosses the spawn again (:attr:`respawn_pending`): the
        child can never observe the parent's replayed pre-spawn writes
        before they are re-produced.
        """
        self.cursor = 0
        self.attempts += 1
        self.write_log.clear()
        self.read_words.clear()
        self._write_lines.clear()
        self.shadow_write_words = None
        self.prespawn_write_words = set()
        self.pending_stale.clear()
        self.status = _RUNNING
        self.blocked_on = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskState(id={self.task_id}, {self.status.value}, "
            f"proc={self.proc}, cursor={self.cursor}, attempts={self.attempts})"
        )
