"""The TM system simulator: processors, bus, memory, and the run loop.

Execution is trace-driven: each processor steps through its
:class:`~repro.sim.trace.ThreadTrace`, and the system always advances the
processor with the smallest local clock, giving a deterministic
interleaving.  Commits serialise on the bus; squashed transactions rewind
their cursor and re-execute.

Correctness instrumentation
---------------------------
The simulator enforces two oracles while running:

* **Stale-read detection** — every load's cached value must equal the
  value the thread is architecturally allowed to observe (its own write
  log, else committed memory).  Any bug in commit invalidation, squash
  invalidation, or non-speculative invalidation trips this immediately.
* **Serialisability by construction check** — committed write logs are
  applied to a single architectural :class:`~repro.mem.memory.WordMemory`
  in commit order; tests replay the recorded commit order serially and
  require identical final memory.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.coherence.message import MessageKind
from repro.errors import SimulationError
from repro.mem.address import LINE_SHIFT, WORD_SHIFT
from repro.mem.memory import WordMemory
from repro.obs import Observability
from repro.sim.engine import MinClockScheduler
from repro.sim.trace import EventKind, ThreadTrace
from repro.spec.config import RunConfig
from repro.spec.system import SpecSystemCore
from repro.tm.bulk import BulkScheme
from repro.tm.conflict import TmScheme
from repro.tm.params import TM_DEFAULTS, TmParams
from repro.tm.processor import TmProcessor
from repro.tm.stats import TmStats
from repro.tm.txstate import TxnState

@dataclass
class TmRunResult:
    """Everything a finished TM run exposes."""

    scheme: str
    cycles: int
    stats: TmStats
    memory: WordMemory
    #: txn ids in global commit order (the serialisation witness).
    commit_order: List[int] = field(default_factory=list)


class TmSystem(SpecSystemCore):
    """An 8-processor (by default) TM machine running one scheme."""

    def __init__(
        self,
        traces: Sequence[ThreadTrace],
        scheme: TmScheme,
        params: TmParams = TM_DEFAULTS,
        obs: Optional[Observability] = None,
        config: Optional[RunConfig] = None,
    ) -> None:
        if not traces:
            raise SimulationError("a TM system needs at least one thread trace")
        self.scheme = scheme
        self.memory = WordMemory()
        # Bus, observability unpacking, the run options, and the shared
        # instruments (tm.commits / tm.commit_packet_bytes /
        # tm.txn_cycles) come from the substrate core; only TM-specific
        # counters are wired here.
        self._init_spec_core(
            params, obs, config, prefix="tm", unit_timer="tm.txn_cycles"
        )
        if self.metrics is not None:
            self._m_txn_begins = self.metrics.counter("tm.txn_begins")
            self._m_overflow = self.metrics.counter("tm.overflow_accesses")
        else:
            self._m_txn_begins = None
            self._m_overflow = None
        # A run's scheme is fixed, and only Bulk transactions carry
        # signatures: decide once which configuration they get.
        bulk = isinstance(scheme, BulkScheme)
        self._txn_signature_config = params.signature_config if bulk else None
        self.stats = TmStats()
        self.processors: List[TmProcessor] = [
            TmProcessor(pid, trace, params.geometry)
            for pid, trace in enumerate(traces)
        ]
        # SMT-style cores: consecutive hardware threads share one cache
        # (and, for Bulk, one BDM — multiple version contexts at once).
        if params.threads_per_core > 1:
            if not bulk:
                raise SimulationError(
                    "threads_per_core > 1 requires the Bulk scheme: a "
                    "conventional multi-versioned cache needs per-line "
                    "version IDs and multiple copies per line, which the "
                    "unmodified cache model deliberately lacks"
                )
            for proc in self.processors:
                first = self.processors[
                    (proc.pid // params.threads_per_core)
                    * params.threads_per_core
                ]
                proc.cache = first.cache
        self.commit_order: List[int] = []
        self._scheduler: Optional[MinClockScheduler] = None
        #: Logs of committed (txn id -> write log) in commit order, used
        #: by the serialisability oracle.
        self.committed_logs: List[Tuple[int, Dict[int, int]]] = []
        for proc in self.processors:
            scheme.setup_processor(self, proc)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> TmRunResult:
        """Execute every trace to completion and return the results."""
        self.trace_run_begin(
            "tm",
            processors=len(self.processors),
            events=sum(len(p.trace.events) for p in self.processors),
        )
        scheduler = MinClockScheduler(self.metrics)
        self._scheduler = scheduler
        processors = self.processors
        for proc in processors:
            if proc.at_end():
                proc.done = True
            else:
                scheduler.push(proc.clock, proc.pid, proc.epoch)
        # Drain the scheduler's heap directly: the pop/push ordering is
        # bit-identical to its methods, minus their per-entry counter
        # bookkeeping.  Mid-step pushes (squash re-queues, waiter
        # releases) go through scheduler.push into the same heap and are
        # seen here.
        step = self._step
        heap = scheduler._heap
        heappush_ = heapq.heappush
        heappop_ = heapq.heappop
        pushes = stale = 0
        while heap:
            _, pid, epoch = heappop_(heap)
            proc = processors[pid]
            if proc.done or epoch != proc.epoch or proc.waiting_on is not None:
                stale += 1
                continue
            step(proc)
            if proc.done or proc.waiting_on is not None:
                continue
            heappush_(heap, (proc.clock, pid, proc.epoch))
            pushes += 1
        scheduler.account_bulk(pushes, stale)
        self._scheduler = None

        stuck = [p.pid for p in self.processors if not p.done]
        if stuck:
            raise SimulationError(
                f"TM simulation deadlocked; processors {stuck} never finished"
            )
        self.stats.cycles = max(proc.clock for proc in self.processors)
        self.finalize_bus_stats()
        self.trace_run_end()
        return TmRunResult(
            scheme=self.scheme.name,
            cycles=self.stats.cycles,
            stats=self.stats,
            memory=self.memory,
            commit_order=self.commit_order,
        )

    # ------------------------------------------------------------------
    # One step of one processor
    # ------------------------------------------------------------------

    def _step(self, proc: TmProcessor) -> None:
        events = proc.trace.events
        event = events[proc.cursor]
        kind = event.kind
        # Branches ordered by frequency: memory accesses dominate every
        # workload, then compute bursts, then the rare txn markers.  The
        # access pre-check (formerly a separate _access method) is
        # inlined into both branches: it sat two frames deep on the
        # hottest path of the whole simulator.
        if kind is EventKind.LOAD:
            if proc.txn is not None and self.scheme.eager_checks_loads:
                stall_on = self.scheme.eager_check(
                    self, proc, event.address, False
                )
                if stall_on is not None:
                    self._note_stall(proc, stall_on)
                    return
            self._load(proc, event.address)
            proc.cursor += 1
        elif kind is EventKind.STORE:
            if proc.txn is not None:
                stall_on = self.scheme.eager_check(
                    self, proc, event.address, True
                )
                if stall_on is not None:
                    self._note_stall(proc, stall_on)
                    return
            self._store(proc, event.address, event.value)
            proc.cursor += 1
        elif kind is EventKind.COMPUTE:
            proc.clock += event.cycles
            proc.cursor += 1
        elif kind is EventKind.TX_BEGIN:
            self._begin(proc)
        elif kind is EventKind.TX_END:
            self._end(proc)
        else:  # pragma: no cover - exhaustive over EventKind
            raise SimulationError(f"unhandled event kind {kind!r}")
        if proc.cursor >= proc.num_events and proc.txn is None:
            proc.done = True
            self._release_waiters(proc, proc.clock)

    def _begin(self, proc: TmProcessor) -> None:
        if proc.txn is None:
            proc.txn = TxnState(
                proc.fresh_txn_id(),
                start_cursor=proc.cursor,
                signature_config=self._txn_signature_config,
                sig_backend=self._sig_backend,
            )
            self.scheme.on_txn_begin(self, proc)
            proc.clock += self.params.begin_overhead_cycles
            if self._m_txn_begins is not None:
                self._m_txn_begins.inc()
            self.start_unit_timer(proc.pid, proc.clock)
            if self.tracer is not None:
                self.tracer.emit(
                    "txn.begin",
                    proc=proc.pid,
                    txn=proc.txn.txn_id,
                    clock=proc.clock,
                )
        else:
            proc.txn.depth += 1
            if self.scheme.partial_rollback:
                proc.txn.push_section(proc.cursor + 1)
        proc.cursor += 1

    def _end(self, proc: TmProcessor) -> None:
        if proc.txn is None:
            raise SimulationError(f"TX_END with no open transaction on {proc.pid}")
        if proc.txn.depth > 1:
            proc.txn.depth -= 1
            if self.scheme.partial_rollback:
                proc.txn.push_section(proc.cursor + 1)
            proc.cursor += 1
            return
        self._commit(proc)

    # ------------------------------------------------------------------
    # Memory accesses
    # ------------------------------------------------------------------

    def _note_stall(self, proc: TmProcessor, stall_on: int) -> None:
        """An eager check named a conflicting pid: stall behind it, or
        retry next cycle if its transaction is already gone.  The caller
        returns without running the access or advancing the cursor."""
        target = self.processors[stall_on]
        if target.txn is None or target.done:
            proc.clock += 1
            return
        proc.waiting_on = stall_on
        target.waiters.append(proc.pid)

    def _spec_writer_of_line(self, cache, line_address: int) -> Optional[TmProcessor]:
        """The thread whose live transaction wrote a line held in
        ``cache`` (the thread itself or, in an SMT core, a co-resident
        one), or ``None`` if the dirty line is non-speculative."""
        for candidate in self.processors:
            if candidate.cache is not cache:
                continue
            if candidate.txn is not None and line_address in (
                candidate.txn.all_write_lines()
            ):
                return candidate
        return None

    def _coresident_spec_owner(
        self, proc: TmProcessor, line_address: int
    ) -> Optional[TmProcessor]:
        """The co-resident hardware thread whose transaction wrote a line
        of the shared cache, if any (only possible with SMT cores)."""
        if self.params.threads_per_core <= 1:
            return None
        writer = self._spec_writer_of_line(proc.cache, line_address)
        if writer is proc:
            return None
        return writer

    def _load(self, proc: TmProcessor, byte_address: int) -> None:
        # Shifts inlined (== byte_to_word / byte_to_line): per-access path.
        word = byte_address >> WORD_SHIFT
        line_address = byte_address >> LINE_SHIFT
        # Cache.lookup inlined (same dict probe + LRU touch): this is the
        # single hottest call site in the simulator.
        cache = proc.cache
        cache_set = cache._sets[line_address & cache._set_mask]
        line = cache_set.get(line_address)
        if line is not None:
            cache_set.move_to_end(line_address)
        if line is not None and line.dirty and (
            self._coresident_spec_owner(proc, line_address) is not None
        ):
            # The shared cache holds a co-resident thread's speculative
            # version.  The BDM screens the request (the set is covered
            # by another context's delta(W)) and nacks it; the committed
            # value is served from memory without disturbing the cached
            # speculative line (Section 4.5's external-request rule,
            # applied within the core).
            proc.clock += self.params.miss_cycles
            self.bus.record(MessageKind.NACK, now=proc.clock, port=proc.pid)
            self.bus.record(MessageKind.FILL, now=proc.clock, port=proc.pid)
        elif line is not None:
            proc.clock += self.params.hit_cycles
            observed = line.words[word & 0xF]  # == line.read_word(word)
            # The stale-read oracle only matters on hits: the nack path
            # serves from memory and the miss path rebuilds the line from
            # memory + the thread's own log.  The expected value is the
            # transaction's own logged store, else memory.
            txn = proc.txn
            expected = txn.lookup_word(word) if txn is not None else None
            if expected is None:
                expected = self.memory.load(word)
            if observed != expected:
                raise SimulationError(
                    f"stale read: proc {proc.pid} loads word 0x{word:x} and "
                    f"sees {observed}, architecture requires {expected} "
                    f"(scheme {self.scheme.name})"
                )
        else:
            self._miss_fill(proc, byte_address, line_address)
        txn = proc.txn
        if txn is not None:
            txn.record_load(byte_address)
            self.scheme.record_load(self, proc, byte_address)

    def _store(self, proc: TmProcessor, byte_address: int, value: int) -> None:
        line_address = byte_address >> LINE_SHIFT
        txn = proc.txn
        if txn is not None:
            # Cache.lookup inlined (dict probe + LRU touch), as in _load.
            cache = proc.cache
            cache_set = cache._sets[line_address & cache._set_mask]
            line = cache_set.get(line_address)
            if line is not None:
                cache_set.move_to_end(line_address)
                proc.clock += self.params.hit_cycles
            else:
                line = self._miss_fill(proc, byte_address, line_address)
            # == line.write_word(byte_address >> WORD_SHIFT, value)
            line.words[(byte_address >> WORD_SHIFT) & 0xF] = value & 0xFFFFFFFF
            line.dirty = True
            txn.record_store(byte_address, value)
            self.scheme.record_store(self, proc, byte_address)
            return
        # Non-speculative store: globally visible immediately.
        self._nonspec_store(proc, byte_address, value, line_address)

    def _nonspec_store(
        self, proc: TmProcessor, byte_address: int, value: int, line_address: int
    ) -> None:
        word = byte_address >> WORD_SHIFT
        if self.params.threads_per_core > 1:
            # A non-speculative dirty line must not join a cache set
            # owned by a co-resident thread's speculative context (the
            # Set Restriction also binds non-speculative writers,
            # Section 4.3); the speculative owner is squashed.  SMT cores
            # run only under Bulk (checked at construction).
            bdm = self.scheme.bdm_of(proc)
            set_index = self.params.geometry.set_index(line_address)
            owner = bdm.speculative_owner_of_set(set_index)
            if owner is not None and owner.owner != proc.pid:
                self.squash_preempted_context(proc, owner)
        self.memory.store(word, value)
        # Cache.lookup inlined (dict probe + LRU touch), as in _load.
        cache = proc.cache
        cache_set = cache._sets[line_address & cache._set_mask]
        line = cache_set.get(line_address)
        if line is not None:
            cache_set.move_to_end(line_address)
            proc.clock += self.params.hit_cycles
        else:
            line = self._miss_fill(proc, byte_address, line_address)
        line.write_word(word, value)
        # Squash remote transactions that touched the address, then
        # invalidate remote copies.
        for other in self.processors:
            if other is proc or other.txn is None:
                continue
            if self.scheme.nonspec_inval_check(self, other, byte_address):
                exact = (
                    line_address in other.txn.all_read_granules()
                    or line_address in other.txn.all_write_granules()
                )
                self.squash(
                    victim=other,
                    from_section=0,
                    now=proc.clock,
                    dependence_granules=1 if exact else 0,
                    false_positive=not exact,
                    cause="nonspec-store",
                )
        any_copy = False
        for other in self.processors:
            if other is proc or other.cache is proc.cache:
                continue
            # Cache.invalidate inlined (one dict pop): this probe runs
            # once per remote cache per non-speculative store and almost
            # always comes back empty.
            remote_cache = other.cache
            popped = remote_cache._sets[
                line_address & remote_cache._set_mask
            ].pop(line_address, None)
            if popped is not None:
                any_copy = True
        if any_copy:
            self.bus.record(
                MessageKind.INVALIDATION, now=proc.clock, port=proc.pid
            )

    def _miss_fill(self, proc: TmProcessor, byte_address: int, line_address: int):
        """Service a miss: overflow area first (if the scheme says so),
        else memory, with coherence charges.  Returns the filled line."""
        proc.clock += self.params.miss_cycles
        if proc.txn is not None and self.scheme.miss_checks_overflow(
            self, proc, byte_address
        ):
            proc.clock += self.params.overflow_access_cycles
            self.charge_overflow_access(1)
            assert proc.overflow_area is not None
            data = proc.overflow_area.lookup(line_address)
            if data is not None:
                victim = proc.cache.fill(line_address, data, dirty=True)
                self._handle_victim(proc, victim)
                line = proc.cache.lookup(line_address, touch=False)
                assert line is not None
                return line
        words = list(self.memory.load_line(line_address))
        dirty = False
        if proc.txn is not None and line_address in proc.txn.all_write_lines():
            # Overlay the thread's own speculative values (a line may have
            # been partially written, evicted, and refetched).  The
            # write-lines test gates the 16-word merge: log keys' lines
            # are exactly the write-lines set, so an uncovered line has
            # nothing to overlay.
            log = proc.txn.merged_write_log()
            base = line_address << 4
            for offset in range(16):
                value = log.get(base + offset)
                if value is not None:
                    words[offset] = value
                    dirty = True
        self._charge_fill_coherence(proc, line_address)
        victim = proc.cache.fill(line_address, words, dirty=dirty)
        self._handle_victim(proc, victim)
        line = proc.cache.lookup(line_address, touch=False)
        assert line is not None
        return line

    def _charge_fill_coherence(self, proc: TmProcessor, line_address: int) -> None:
        self.bus.record(MessageKind.FILL, now=proc.clock, port=proc.pid)
        for other in self.processors:
            if other is proc or other.cache is proc.cache:
                continue
            # Touch-free Cache.lookup inlined: this probe runs once per
            # remote cache per miss and almost always comes back empty.
            cache = other.cache
            remote = cache._sets[line_address & cache._set_mask].get(line_address)
            if remote is None or not remote.dirty:
                continue
            if self._spec_writer_of_line(other.cache, line_address) is not None:
                # Speculative dirty data (possibly a co-resident thread's
                # in an SMT core): the request is nacked and memory
                # responds with the committed version.
                self.bus.record(
                    MessageKind.NACK, now=proc.clock, port=proc.pid
                )
            else:
                # Non-speculative dirty: the owner downgrades (its data
                # matches memory in this model).
                self.bus.record(
                    MessageKind.DOWNGRADE, now=proc.clock, port=proc.pid
                )
                other.cache.clean(line_address)
            break

    def _handle_victim(self, proc: TmProcessor, victim) -> None:
        if victim is None or not victim.dirty:
            return
        # The speculative owner may be this thread or (in an SMT core) a
        # co-resident thread sharing the cache.
        owner: Optional[TmProcessor] = None
        if proc.txn is not None and victim.line_address in (
            proc.txn.all_write_lines()
        ):
            owner = proc
        else:
            owner = self._coresident_spec_owner(proc, victim.line_address)
        if owner is not None:
            area = owner.ensure_overflow_area()
            area.spill(victim.line_address, victim.snapshot_words())
            self.charge_overflow_access(1)
            self.scheme.on_spec_eviction(self, owner)
        else:
            self.bus.record(
                MessageKind.WRITEBACK, now=proc.clock, port=proc.pid
            )

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _commit(self, proc: TmProcessor) -> None:
        txn = proc.txn
        assert txn is not None
        packet_bytes = self.scheme.commit_packet(self, proc)
        proc.clock = self.charge_commit_bus(
            proc.clock, packet_bytes, port=proc.pid
        )
        now = proc.clock

        self.stats.committed_transactions += 1
        self.stats.read_set_granules += len(txn.all_read_granules())
        self.stats.write_set_granules += len(txn.all_write_granules())
        if proc.has_overflow():
            self.stats.overflowed_transactions += 1
        if self.obs_enabled:
            self.note_commit(
                packet_bytes,
                proc.pid,
                now,
                proc=proc.pid,
                txn=txn.txn_id,
                write_granules=len(txn.all_write_granules()),
            )

        committed_writes = txn.all_write_granules()
        self.scheme.on_commit_broadcast(self, proc)
        updated_caches = {id(proc.cache)}
        for other in self.processors:
            if other is proc:
                continue
            if other.txn is not None:
                if other.has_overflow():
                    self.scheme.overflow_disambiguation_cost(self, proc, other)
                # A ∩ (R ∪ W) without allocating the (large) R ∪ W union:
                # the committed write set is the small operand.
                exact_dep = (committed_writes & other.txn.all_read_granules()) | (
                    committed_writes & other.txn.all_write_granules()
                )
                section = self.scheme.receiver_conflict(self, proc, other)
                if section is not None:
                    self.squash(
                        victim=other,
                        from_section=section,
                        now=now,
                        dependence_granules=len(exact_dep),
                        false_positive=not exact_dep,
                    )
            # Commit invalidation runs once per *cache*: a co-resident
            # thread shares the committer's own cache (whose lines are
            # the freshly committed data), and receiver threads sharing
            # a core must not invalidate their common cache twice.
            if id(other.cache) not in updated_caches:
                updated_caches.add(id(other.cache))
                self.scheme.commit_update_receiver(self, proc, other)

        # Make the transaction's state architectural, in section order.
        # One merge serves both the store replay and the serialisability
        # log; the transaction is torn down below, so the dict is final.
        merged_log = txn.merged_write_log()
        for word, value in merged_log.items():
            self.memory.store(word, value)
        self.committed_logs.append((txn.txn_id, merged_log))
        self.commit_order.append(txn.txn_id)

        # Propagate the committed data: the writeback of each written
        # line happens at commit (its cached copy turns clean).  Keeping
        # committed lines dirty would make every *later* transaction's
        # first store to their cache sets pay a Set Restriction safe
        # writeback — far beyond the ~1/transaction the paper reports.
        for line_address in txn.all_write_lines():
            line = proc.cache.lookup(line_address, touch=False)
            if line is not None and line.dirty:
                self.bus.record(
                    MessageKind.WRITEBACK, now=now, port=proc.pid
                )
                proc.cache.clean(line_address)

        if proc.overflow_area is not None and proc.overflow_area.allocated:
            drained = proc.overflow_area.drain()
            if drained:
                self.charge_overflow_access(len(drained))
            proc.overflow_area = None

        self.scheme.commit_cleanup(self, proc)
        proc.txn = None
        proc.cursor += 1
        self._release_waiters(proc, now)

    # ------------------------------------------------------------------
    # Squash
    # ------------------------------------------------------------------

    def squash(
        self,
        victim: TmProcessor,
        from_section: int,
        now: int,
        dependence_granules: int,
        false_positive: bool,
        cause: str = "commit-conflict",
    ) -> None:
        """Squash (or partially roll back) a transaction and restart it.

        ``cause`` labels the squash for the event trace and per-cause
        metrics: ``commit-conflict`` (bulk/lazy disambiguation at a
        commit), ``eager-conflict`` (an eager scheme's per-access check),
        ``nonspec-store`` (a non-speculative store hit the victim's
        sets), or ``set-restriction`` (a (0,1) Set Restriction conflict).
        It has no effect on simulation behaviour.
        """
        txn = victim.txn
        if txn is None:
            raise SimulationError(f"squash of idle processor {victim.pid}")
        self.stats.squashes += 1
        if false_positive:
            self.stats.false_positive_squashes += 1
        self.stats.dependence_granules += dependence_granules
        per_proc = self.stats.squashes_by_processor
        per_proc[victim.pid] = per_proc.get(victim.pid, 0) + 1
        if self.obs_enabled:
            self.note_squash(
                cause,
                count_false_positive=false_positive,
                victim=victim.pid,
                txn=txn.txn_id,
                false_positive=false_positive,
                dependence_granules=dependence_granules,
                from_section=from_section,
                clock=now,
            )

        partial = self.scheme.partial_rollback and from_section > 0
        self.scheme.squash_cleanup(self, victim, from_section if partial else 0)
        if partial:
            victim.cursor = txn.discard_sections_from(from_section)
            txn.attempts += 1
        else:
            txn.reset_for_restart()
            victim.cursor = txn.start_cursor + 1
        if txn.attempts > self.params.max_attempts_per_txn:
            raise SimulationError(
                f"transaction on processor {victim.pid} restarted "
                f"{txn.attempts} times — livelock (scheme {self.scheme.name})"
            )
        if victim.overflow_area is not None and victim.overflow_area.allocated:
            if not victim.overflow_area.is_empty():
                self.charge_overflow_access(1)
            victim.overflow_area.deallocate()
            victim.overflow_area = None

        victim.clock = max(victim.clock, now) + self.params.squash_overhead_cycles
        victim.epoch += 1
        victim.waiting_on = None
        # The txn timer measures the *attempt* that commits; restart the
        # measurement at the replay's start.
        self.start_unit_timer(victim.pid, victim.clock)
        if self._scheduler is not None:
            self._scheduler.push(victim.clock, victim.pid, victim.epoch)
        self._release_waiters(victim, victim.clock)

    def squash_preempted_context(self, proc: TmProcessor, context) -> None:
        """Resolve a Set Restriction (0,1) conflict: another version
        context (a co-resident hardware thread's transaction) owns dirty
        lines in the set this thread wants to write.  Of the paper's
        resolution options (preempt, squash the owner, merge), the
        evaluated one squashes the owning speculative thread."""
        if context.owner is None or not (
            0 <= context.owner < len(self.processors)
        ):
            raise SimulationError(
                "Set Restriction conflict against a context with no "
                "resolvable owner"
            )
        victim = self.processors[context.owner]
        if victim.txn is None:
            raise SimulationError(
                f"Set Restriction conflict against idle thread {victim.pid}"
            )
        self.squash(
            victim=victim,
            from_section=0,
            now=proc.clock,
            dependence_granules=0,
            false_positive=False,
            cause="set-restriction",
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def charge_overflow_access(self, count: int) -> None:
        """Account ``count`` overflow-area accesses (bus UB + stats)."""
        for _ in range(count):
            self.bus.record(MessageKind.OVERFLOW_ACCESS)
        self.stats.overflow_area_accesses += count
        if self._m_overflow is not None:
            self._m_overflow.inc(count)
        if self.tracer is not None:
            self.tracer.emit("overflow", accesses=count)

    def _release_waiters(self, proc: TmProcessor, now: int) -> None:
        if not proc.waiters:
            return
        waiters, proc.waiters = proc.waiters, []
        for pid in waiters:
            waiter = self.processors[pid]
            if waiter.done:
                continue
            waiter.waiting_on = None
            waiter.clock = max(waiter.clock, now) + 1
            waiter.epoch += 1
            if self._scheduler is not None:
                self._scheduler.push(waiter.clock, waiter.pid, waiter.epoch)

    def replay_serial_reference(self) -> WordMemory:
        """Re-apply the committed write logs in commit order to a fresh
        memory — the atomicity witness tests compare against.

        Words only ever written non-transactionally are excluded (they
        are applied at execution time, which this replay does not model);
        tests restrict the comparison to transactional words or use
        workloads without non-transactional stores.
        """
        reference = WordMemory()
        for _, log in self.committed_logs:
            for word, value in log.items():
                reference.store(word, value)
        return reference

