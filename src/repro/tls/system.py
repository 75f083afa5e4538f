"""The TLS system simulator: dispatch, execution, in-order commit.

Tasks are dispatched to processors in task order once their parent has
reached its spawn point; a processor may hold more than one resident task
(a running one plus finished, waiting-to-commit predecessors — the
multi-versioning of Section 2).  Tasks commit strictly in task order.

Correctness instrumentation
---------------------------
* Final memory is deterministic: committed write logs applied in task
  order, independent of scheme and interleaving — every scheme must
  produce the same final state as a sequential replay (tests assert it).
* A **stale-read oracle** records every load whose cached value differed
  from the architecturally visible one (own log → active predecessors'
  logs → memory).  A violated task must be squashed before it commits;
  committing with pending stale reads raises immediately.  This is what
  catches a broken Partial Overlap implementation — e.g. omitting the
  spawn-time cache flush of Figure 9 while still using the shadow
  signature.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.cache import Cache
from repro.coherence.message import MessageKind
from repro.errors import SimulationError
from repro.mem.address import LINE_SHIFT, WORD_SHIFT
from repro.mem.memory import WordMemory
from repro.obs import Observability
from repro.sim.engine import MinClockScheduler
from repro.sim.trace import EventKind, MemEvent
from repro.spec.config import RunConfig
from repro.spec.system import SpecSystemCore
from repro.tls.conflict import TlsScheme
from repro.tls.lazy import TlsLazyScheme
from repro.tls.params import TLS_DEFAULTS, TlsParams
from repro.tls.stats import TlsStats
from repro.tls.task import TaskState, TaskStatus, TlsTask

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``EventKind.LOAD`` goes through the enum metaclass's
# ``__getattr__``, several times slower than a module global, and the
# step loop compares them per event and per scheduling decision and
# passes them per bus message.
_LOAD = EventKind.LOAD
_STORE = EventKind.STORE
_COMPUTE = EventKind.COMPUTE
_PENDING = TaskStatus.PENDING
_RUNNING = TaskStatus.RUNNING
_WAITING = TaskStatus.WAITING
_COMMITTED = TaskStatus.COMMITTED
_FILL = MessageKind.FILL
_WRITEBACK = MessageKind.WRITEBACK
_DOWNGRADE = MessageKind.DOWNGRADE


class TlsProcessor:
    """One TLS processor: cache, clock, resident tasks."""

    __slots__ = ("pid", "cache", "clock", "epoch", "resident")

    def __init__(self, pid: int, geometry) -> None:
        self.pid = pid
        self.cache = Cache(geometry)
        self.clock = 0
        self.epoch = 0
        #: Task ids resident on this processor, oldest first.
        self.resident: List[int] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TlsProcessor(pid={self.pid}, clock={self.clock}, "
            f"resident={self.resident})"
        )


@dataclass
class TlsRunResult:
    """Everything a finished TLS run exposes."""

    scheme: str
    cycles: int
    stats: TlsStats
    memory: WordMemory


class TlsSystem(SpecSystemCore):
    """A 4-processor (by default) TLS machine running one scheme."""

    def __init__(
        self,
        tasks: Sequence[TlsTask],
        scheme: TlsScheme,
        params: TlsParams = TLS_DEFAULTS,
        obs: Optional[Observability] = None,
        config: Optional[RunConfig] = None,
    ) -> None:
        if not tasks:
            raise SimulationError("a TLS system needs at least one task")
        self.scheme = scheme
        self.memory = WordMemory()
        # Bus, observability unpacking, the run options, and the shared
        # instruments (tls.commits / tls.commit_packet_bytes /
        # tls.task_cycles) come from the substrate core; only the
        # dispatch counter is TLS-only.
        self._init_spec_core(
            params, obs, config, prefix="tls", unit_timer="tls.task_cycles"
        )
        if self.metrics is not None:
            self._m_dispatches = self.metrics.counter("tls.dispatches")
        else:
            self._m_dispatches = None
        self.stats = TlsStats()
        self.tasks: List[TaskState] = [TaskState(task) for task in tasks]
        self.processors = [
            TlsProcessor(pid, params.geometry)
            for pid in range(params.num_processors)
        ]
        #: Index of the oldest uncommitted task.
        self.head = 0
        #: Lowest task id not yet dispatched.
        self.next_dispatch = 0
        #: task id -> clock at which its spawn was signalled.
        self.spawn_times: Dict[int, int] = {0: 0}
        self.last_commit_time = 0
        self._scheduler: Optional[MinClockScheduler] = None
        for proc in self.processors:
            scheme.setup_processor(self, proc)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> TlsRunResult:
        """Execute every task to commit and return the results."""
        self.trace_run_begin(
            "tls", processors=len(self.processors), tasks=len(self.tasks)
        )
        scheduler = MinClockScheduler(self.metrics)
        self._scheduler = scheduler
        self._dispatch_all(now=0)
        for proc in self.processors:
            self._schedule(proc)
        # Drain the scheduler's heap directly, as TmSystem.run does: the
        # pop/push ordering is bit-identical to its methods, minus their
        # per-entry counter bookkeeping.  Wakes, dispatches and squashes
        # push through scheduler.push into the same heap and are seen
        # here.
        processors = self.processors
        tasks = self.tasks
        num_tasks = len(tasks)
        step = self._step
        runnable_task = self._runnable_task
        heap = scheduler._heap
        heappush_ = heapq.heappush
        heappop_ = heapq.heappop
        waiting = _WAITING
        pushes = stale = 0
        while heap:
            clock, pid, epoch = heappop_(heap)
            proc = processors[pid]
            # Commits are processed in global clock order: a waiting head
            # task whose finish time is at or before this entry's clock
            # commits *before* the entry's own work runs.
            head = self.head
            if head < num_tasks:
                state = tasks[head]
                if state.status is waiting and state.finish_clock <= clock:
                    self._try_commits(up_to=clock)
            if epoch != proc.epoch:
                stale += 1
                continue
            step(proc)
            # == self._schedule(proc), straight onto the heap.
            if runnable_task(proc) is not None:
                if proc.clock < 0:
                    raise SimulationError(f"negative clock {proc.clock}")
                proc.epoch += 1
                heappush_(heap, (proc.clock, pid, proc.epoch))
                pushes += 1
        scheduler.account_bulk(pushes, stale)
        # Drain any commits still pending when the queue empties.
        self._try_commits(up_to=None)
        self._scheduler = None

        uncommitted = [
            t.task_id for t in self.tasks if t.status is not _COMMITTED
        ]
        if uncommitted:
            raise SimulationError(
                f"TLS simulation deadlocked; tasks {uncommitted[:8]} never "
                "committed"
            )
        self.stats.cycles = max(
            self.last_commit_time, max(p.clock for p in self.processors)
        )
        self.finalize_bus_stats()
        self.trace_run_end()
        return TlsRunResult(
            scheme=self.scheme.name,
            cycles=self.stats.cycles,
            stats=self.stats,
            memory=self.memory,
        )

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------

    def _runnable_task(self, proc: TlsProcessor) -> Optional[TaskState]:
        """The least-speculative resident task that can make progress."""
        for task_id in proc.resident:
            state = self.tasks[task_id]
            if state.status is not _RUNNING:
                continue
            if state.respawn_pending:
                continue
            if state.blocked_on is not None:
                blocker = self.tasks[state.blocked_on]
                if blocker.status is not _COMMITTED:
                    continue
                state.blocked_on = None
            return state
        return None

    def active_tasks(self) -> List[TaskState]:
        """All dispatched, uncommitted tasks, oldest first.

        Tasks dispatch in id order and ``next_dispatch`` moves past a
        task before it is dispatched, so no task at or beyond it has
        left PENDING: only ``tasks[head:next_dispatch]`` is scanned.
        """
        return [
            state
            for state in self.tasks[self.head : self.next_dispatch]
            if state.is_active()
        ]

    def _schedule(self, proc: TlsProcessor, force: bool = False) -> None:
        """Queue the processor's next step.

        Every push bumps the epoch, so at most one live scheduler entry
        exists per processor — double entries would double-step it.
        ``force`` queues even with no runnable task (used when a task
        finishes, so its commit is attempted at its finish time).
        """
        if self._scheduler is None:
            return
        if force or self._runnable_task(proc) is not None:
            proc.epoch += 1
            self._scheduler.push(proc.clock, proc.pid, proc.epoch)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch_all(self, now: int) -> None:
        while self.next_dispatch < len(self.tasks):
            state = self.tasks[self.next_dispatch]
            if state.status is not _PENDING:
                self.next_dispatch += 1
                continue
            if self.next_dispatch not in self.spawn_times:
                return
            proc = self._pick_processor()
            if proc is None:
                return
            self.next_dispatch += 1
            self._dispatch(proc, state, now)

    def _pick_processor(self) -> Optional[TlsProcessor]:
        """A processor with a free slot and no still-running resident,
        preferring the one with the smallest clock."""
        best: Optional[TlsProcessor] = None
        for proc in self.processors:
            if len(proc.resident) >= self.params.tasks_per_processor:
                continue
            if not self.scheme.can_accept_task(self, proc):
                continue
            if any(
                self.tasks[tid].status is _RUNNING
                for tid in proc.resident
            ):
                continue
            if best is None or proc.clock < best.clock:
                best = proc
        return best

    def _dispatch(self, proc: TlsProcessor, state: TaskState, now: int) -> None:
        state.proc = proc.pid
        state.status = _RUNNING
        state.cursor = 0
        state.attempts = max(state.attempts, 1)
        proc.resident.append(state.task_id)
        proc.resident.sort()
        spawn_time = self.spawn_times.get(state.task_id, 0)
        proc.clock = (
            max(proc.clock, spawn_time, now) + self.params.spawn_overhead_cycles
        )
        if self._m_dispatches is not None:
            self._m_dispatches.inc()
        self.start_unit_timer(state.task_id, proc.clock)
        if self.tracer is not None:
            self.tracer.emit(
                "dispatch",
                task=state.task_id,
                proc=proc.pid,
                attempt=state.attempts,
                clock=proc.clock,
            )
        self.scheme.on_dispatch(self, proc, state)
        self._schedule(proc)

    # ------------------------------------------------------------------
    # One step of one processor
    # ------------------------------------------------------------------

    def _step(self, proc: TlsProcessor) -> None:
        state = self._runnable_task(proc)
        if state is None:
            return
        task = state.task
        spawn_cursor = task.spawn_cursor
        if state.cursor == spawn_cursor:
            self._spawn_point(proc, state)
        events = task.events
        event = events[state.cursor]
        kind = event.kind
        # Branches ordered by frequency: loads, stores, compute bursts.
        if kind is _LOAD:
            self._load(proc, state, event.address)
        elif kind is _STORE:
            if not self._store(proc, state, event):
                # The store triggered a Wr-Wr squash of this very task;
                # its cursor was already rewound.
                return
        elif kind is _COMPUTE:
            proc.clock += event.cycles
        else:  # pragma: no cover - TlsTask validates event kinds
            raise SimulationError(f"unhandled TLS event {kind!r}")
        state.cursor += 1
        if state.cursor >= len(events):
            if state.cursor == spawn_cursor:
                # Spawn point at the very end of the trace: fire it now,
                # or the successor would never be dispatched.
                self._spawn_point(proc, state)
            state.status = _WAITING
            state.finish_clock = proc.clock
            # The processor now has a free slot: a pending task may start
            # here while this one waits to commit (multi-versioning).
            self._dispatch_all(proc.clock)
            # Schedule the commit attempt at the finish time; the run
            # loop performs it once every earlier event has processed.
            self._schedule(proc, force=True)

    def _spawn_point(self, proc: TlsProcessor, state: TaskState) -> None:
        state.start_shadow()
        self.scheme.on_spawn_point(self, proc, state)
        child = state.task_id + 1
        if child < len(self.tasks):
            if not state.spawn_signalled:
                state.spawn_signalled = True
                self.spawn_times[child] = proc.clock
                self._dispatch_all(proc.clock)
            else:
                # Re-executing the spawn re-creates a child destroyed by
                # a joint squash.
                child_state = self.tasks[child]
                if child_state.respawn_pending:
                    child_state.respawn_pending = False
                    assert child_state.proc is not None
                    child_proc = self.processors[child_state.proc]
                    child_proc.clock = max(child_proc.clock, proc.clock)
                    self.scheme.on_respawn(self, child_proc, child_state)
                    self._schedule(child_proc)

    # ------------------------------------------------------------------
    # Loads and stores
    # ------------------------------------------------------------------

    def _expected_value(self, state: TaskState, word_address: int) -> int:
        """Own log → active predecessors' logs (newest first) → memory."""
        value = state.write_log.get(word_address)
        if value is not None:
            return value
        for task_id in range(state.task_id - 1, self.head - 1, -1):
            predecessor = self.tasks[task_id]
            if not predecessor.is_active():
                continue
            value = predecessor.write_log.get(word_address)
            if value is not None:
                return value
        return self.memory.load(word_address)

    def _load(self, proc: TlsProcessor, state: TaskState, byte_address: int) -> None:
        # Shifts inlined (== byte_to_word / byte_to_line): per-access path.
        word = byte_address >> WORD_SHIFT
        line_address = byte_address >> LINE_SHIFT
        # Cache.lookup inlined (dict probe + LRU touch), and the expected
        # value computed only when a hit needs the version check — the
        # miss path rebuilds the line from logs + memory anyway.
        cache = proc.cache
        cache_set = cache._sets[line_address & cache._set_mask]
        line = cache_set.get(line_address)
        if line is not None:
            cache_set.move_to_end(line_address)
            observed = line.words[word & 0xF]  # == line.read_word(word)
            # The task's own log first, as _expected_value would, without
            # the call when the task wrote the word itself.
            expected = state.write_log.get(word)
            if expected is None:
                expected = self._expected_value(state, word)
            if observed != expected and self.scheme.stale_hit_refetches:
                # Access-time disambiguation rides a versioned coherence
                # protocol: a hit on a wrong-version copy is a miss.  The
                # copy was legally re-created by an *older* task's fill
                # after a newer store invalidated it; re-fetch so eager
                # forwarding delivers the correct version.
                proc.cache.invalidate(line_address)
                self._miss_fill(proc, state, line_address)
            else:
                proc.clock += self.params.hit_cycles
                if observed != expected:
                    # Speculatively reading a stale value: legal, but the
                    # task must be squashed before it commits.
                    state.pending_stale.add(word)
        else:
            self._miss_fill(proc, state, line_address)
        state.record_load(byte_address)
        self.scheme.record_load(self, proc, state, byte_address)

    def _store(self, proc: TlsProcessor, state: TaskState, event: MemEvent) -> bool:
        """Perform a store; returns False if the storer itself was
        squashed by a Wr-Wr Set Restriction conflict."""
        byte_address = event.address
        line_address = byte_address >> LINE_SHIFT
        victim = self.scheme.eager_check_store(self, proc, state, byte_address)
        if victim is not None:
            self._note_direct_squash_stats(
                dependence=1, false_positive=False
            )
            self.squash_from(victim, now=proc.clock, cause="eager-conflict")
        gate = self.scheme.prepare_store(self, proc, state, line_address)
        if gate is not None:
            self.squash_from(
                state.task_id, now=proc.clock, cause="wr-wr-conflict"
            )
            state.blocked_on = gate
            return False
        # Cache.lookup inlined (dict probe + LRU touch), as in _load.
        cache = proc.cache
        cache_set = cache._sets[line_address & cache._set_mask]
        line = cache_set.get(line_address)
        if line is not None:
            cache_set.move_to_end(line_address)
            proc.clock += self.params.hit_cycles
        else:
            line = self._miss_fill(proc, state, line_address)
        line.write_word(byte_address >> WORD_SHIFT, event.value)
        if not line.dirty:  # pragma: no cover - write_word always dirties
            raise SimulationError("store left the line clean")
        state.record_store(byte_address, event.value)
        self.scheme.record_store(self, proc, state, byte_address)
        return True

    def _miss_fill(self, proc: TlsProcessor, state: TaskState, line_address: int):
        proc.clock += self.params.miss_cycles
        words = list(self.memory.load_line(line_address))
        base = line_address << 4
        dirty = False
        # Eager forwarding: overlay the logs of active tasks up to and
        # including this one, oldest first (Section 6.3's "speculative
        # threads can read speculative data generated by other threads").
        for task_id in range(self.head, state.task_id + 1):
            other = self.tasks[task_id]
            # Only a task that wrote the line has words to overlay.
            if line_address not in other.write_lines() or not other.is_active():
                continue
            log = other.write_log
            for offset in range(16):
                value = log.get(base + offset)
                if value is not None:
                    words[offset] = value
                    if task_id == state.task_id:
                        dirty = True
        self.bus.record(_FILL, now=proc.clock, port=proc.pid)
        self._downgrade_remote_dirty(proc, line_address)
        victim = proc.cache.fill(line_address, words, dirty=dirty)
        if victim is not None and victim.dirty:
            self.bus.record(_WRITEBACK, now=proc.clock, port=proc.pid)
        line = proc.cache.lookup(line_address, touch=False)
        assert line is not None
        return line

    def _downgrade_remote_dirty(self, proc: TlsProcessor, line_address: int) -> None:
        """Invalidation-protocol read of a line dirty in a remote cache.

        A *non-speculative* dirty copy (committed data, which mirrors
        memory in this model) is downgraded to clean.  This matters for
        Bulk's commit-side invalidation argument (Section 4.3): a line a
        committer wrote can never still be dirty non-speculative in
        another cache, because the committer's own fill downgraded it.
        Speculative dirty copies stay dirty — their owners' logs back
        them — and serve forwarding.
        """
        for other in self.processors:
            if other is proc:
                continue
            remote = other.cache.lookup(line_address, touch=False)
            if remote is None or not remote.dirty:
                continue
            speculative = self._speculative_dirty(other, line_address)
            self.bus.record(_DOWNGRADE, now=proc.clock, port=proc.pid)
            if not speculative:
                other.cache.clean(line_address)
            break

    def _speculative_dirty(self, proc: TlsProcessor, line_address: int) -> bool:
        """Whether a dirty copy on ``proc`` holds an active resident
        task's speculative data (log-backed) rather than committed
        state mirroring memory."""
        for task_id in proc.resident:
            state = self.tasks[task_id]
            if state.is_active() and line_address in state.write_lines():
                return True
        return False

    def spawn_flush_line(
        self,
        proc: TlsProcessor,
        child: TaskState,
        parent: TaskState,
        line_address: int,
    ) -> bool:
        """Flush one cached line for a Partial-Overlap spawn command.

        The child must not consume a cached copy that pre-dates the
        parent's pre-spawn stores: the shadow exclusion means the
        parent's commit will never squash the child over those words, so
        a stale copy here is a silently missed dependence.  Clean copies
        are invalidated unconditionally (the paper's rule).  A dirty copy
        is kept only while its value for every parent-pre-spawn word on
        the line matches the child's correct view — a current forwarded
        copy — and is otherwise flushed too: non-speculative dirty
        mirrors memory (writeback-invalidate, as at commits) and
        speculative dirty is backed by its owner's log, so a refill
        reconstructs it.  Returns True if a copy was invalidated.
        """
        line = proc.cache.lookup(line_address, touch=False)
        if line is None:
            return False
        if line.dirty:
            base = line_address << 4
            stale = any(
                base + offset in parent.prespawn_write_words
                and line.read_word(base + offset)
                != self._expected_value(child, base + offset)
                for offset in range(16)
            )
            if not stale:
                return False
            if not self._speculative_dirty(proc, line_address):
                self.bus.record(_WRITEBACK, now=proc.clock, port=proc.pid)
        proc.cache.invalidate(line_address)
        return True

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _try_commits(self, up_to: Optional[int]) -> None:
        """Commit the head task (and cascades) whose finish time is at or
        before ``up_to`` (``None`` = unconditionally)."""
        while self.head < len(self.tasks):
            state = self.tasks[self.head]
            if state.status is not _WAITING:
                return
            if up_to is not None and state.finish_clock > up_to:
                return
            self._commit(state)

    def _commit(self, state: TaskState) -> None:
        if state.pending_stale:
            raise SimulationError(
                f"task {state.task_id} commits having read stale values for "
                f"words {sorted(state.pending_stale)[:4]} — a dependence "
                f"violation was missed (scheme {self.scheme.name})"
            )
        assert state.proc is not None
        proc = self.processors[state.proc]
        packet_bytes = self.scheme.commit_packet(self, state)
        commit_time = self.charge_commit_bus(
            state.finish_clock, packet_bytes, port=proc.pid
        )
        self.last_commit_time = max(self.last_commit_time, commit_time)

        self.stats.committed_tasks += 1
        self.stats.read_set_words += len(state.read_words)
        self.stats.write_set_words += len(state.write_log)
        if self.obs_enabled:
            self.note_commit(
                packet_bytes,
                state.task_id,
                commit_time,
                task=state.task_id,
                proc=proc.pid,
                write_words=len(state.write_log),
            )

        # Make the task's state architectural *before* receivers merge
        # lines (the merge fetches the committed version).
        for word, value in state.write_log.items():
            self.memory.store(word, value)

        # Disambiguate all more-speculative active tasks.
        self.scheme.on_commit_broadcast(self, state)
        conflicting: List[TaskState] = []
        for other in self.active_tasks():
            if other.task_id <= state.task_id:
                continue
            exact_dep = self.scheme.exact_dependence(state, other)
            hit = self.scheme.receiver_conflict(self, state, other)
            if hit:
                if not exact_dep and isinstance(self.scheme, TlsLazyScheme):
                    # Lazy disambiguates on the exact sets, so it may
                    # not report a conflict without an overlap.
                    raise SimulationError(
                        f"{self.scheme.name} reported a conflict with no "
                        f"overlap: committing task {state.task_id} wrote no "
                        f"word task {other.task_id} accessed"
                    )
                conflicting.append(other)
                self._note_direct_squash_stats(
                    dependence=len(exact_dep),
                    false_positive=not exact_dep,
                )
            elif exact_dep and not self.scheme.stale_hit_refetches:
                # The one-sided guarantee (Section 3): a scheme that
                # disambiguates at commit may report a conflict where the
                # exact sets have none, never miss one they have.  Eager
                # disambiguates at the access and legitimately leaves
                # write-write overlaps for its commits.
                raise SimulationError(
                    f"{self.scheme.name} missed a true conflict: "
                    f"committing task {state.task_id} wrote word "
                    f"0x{min(exact_dep):x}, which task {other.task_id} "
                    "accessed"
                )
        if conflicting:
            self.squash_from(
                min(t.task_id for t in conflicting), now=commit_time
            )

        # Commit invalidation (and word merging) in every other cache.
        for other_proc in self.processors:
            if other_proc is proc:
                continue
            self.scheme.commit_update_cache(self, state, other_proc)

        state.status = _COMMITTED
        self.scheme.on_commit_cleanup(self, proc, state)
        proc.resident.remove(state.task_id)
        if self._runnable_task(proc) is None:
            proc.clock = max(proc.clock, commit_time)
        self.head += 1
        self._dispatch_all(commit_time)
        for other_proc in self.processors:
            self._schedule(other_proc)

    def _note_direct_squash_stats(
        self, dependence: int, false_positive: bool
    ) -> None:
        self.stats.direct_squashes += 1
        self.stats.dependence_words += dependence
        if false_positive:
            self.stats.false_positive_squashes += 1

    # ------------------------------------------------------------------
    # Squash propagation
    # ------------------------------------------------------------------

    def squash_from(
        self, first_task_id: int, now: int, cause: str = "commit-conflict"
    ) -> None:
        """Squash ``first_task_id`` and every more-speculative active task
        (its children), restarting each on its processor.

        A child squashed together with its parent is *destroyed*, not
        merely restarted: it waits (``respawn_pending``) until the
        replayed parent crosses its spawn point again — by which time the
        parent has re-produced the child's live-ins.

        ``cause`` labels the *direct* victim's squash for the event trace
        and per-cause metrics (``commit-conflict``, ``eager-conflict``,
        ``wr-wr-conflict``); cascaded children are labelled ``cascade``.
        It has no effect on simulation behaviour.
        """
        squashed = [
            state
            for state in self.active_tasks()
            if state.task_id >= first_task_id
        ]
        squashed_ids = {state.task_id for state in squashed}
        for state in reversed(squashed):
            assert state.proc is not None
            proc = self.processors[state.proc]
            self.stats.squashes += 1
            victim_cause = cause if state.task_id == first_task_id else "cascade"
            if self.obs_enabled:
                self.note_squash(
                    victim_cause,
                    victim=state.task_id,
                    proc=proc.pid,
                    attempt=state.attempts,
                    clock=now,
                )
            self.scheme.squash_cleanup(self, proc, state)
            state.reset_for_restart()
            state.respawn_pending = state.task_id - 1 in squashed_ids
            if state.attempts > self.params.max_attempts_per_task:
                raise SimulationError(
                    f"task {state.task_id} restarted {state.attempts} times "
                    f"— livelock (scheme {self.scheme.name})"
                )
            proc.clock = max(proc.clock, now) + self.params.squash_overhead_cycles
            # The task timer measures the attempt that commits; restart
            # the measurement at the replay's start.
            self.start_unit_timer(state.task_id, proc.clock)
            self._schedule(proc)

    # ------------------------------------------------------------------
    # Exact word-grain merge helper (used by the exact schemes)
    # ------------------------------------------------------------------

    def rebuild_merged_line(self, proc: TlsProcessor, line_address: int) -> None:
        """Rebuild a cached line exactly: committed memory overlaid with
        the logs of the processor's active resident tasks, oldest first —
        what a conventional scheme with per-word access bits produces."""
        line = proc.cache.lookup(line_address, touch=False)
        if line is None:
            return
        words = list(self.memory.load_line(line_address))
        base = line_address << 4
        dirty = False
        for task_id in proc.resident:
            state = self.tasks[task_id]
            if not state.is_active() or line_address not in state.write_lines():
                continue
            log = state.write_log
            for offset in range(16):
                value = log.get(base + offset)
                if value is not None:
                    words[offset] = value
                    dirty = True
        line.words = words
        line.dirty = dirty


def simulate_sequential(
    tasks: Sequence[TlsTask], params: TlsParams
) -> Tuple[int, WordMemory]:
    """Execute all tasks back-to-back on one processor.

    The sequential baseline of Figure 10: one cache, no speculation, no
    TLS overheads.  Returns the cycles and the final memory, which every
    TLS scheme's run must reproduce.
    """
    cache = Cache(params.geometry)
    memory = WordMemory()
    clock = 0
    for task in tasks:
        for event in task.events:
            kind = event.kind
            if kind is _COMPUTE:
                clock += event.cycles
                continue
            line_address = event.address >> LINE_SHIFT
            line = cache.lookup(line_address)
            if line is None:
                clock += params.miss_cycles
                cache.fill(line_address, memory.load_line(line_address))
                line = cache.lookup(line_address, touch=False)
                assert line is not None
            else:
                clock += params.hit_cycles
            if kind is _STORE:
                word = event.address >> WORD_SHIFT
                memory.store(word, event.value)
                line.write_word(word, event.value)
    return clock, memory
