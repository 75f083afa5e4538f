"""The checkpoint substrate's system simulator.

A single checkpointed processor executes a stream of epochs.  Each epoch
begins with ``take_checkpoint``; when an epoch turns out to be
mispredicted, the processor rolls back ``rollback_depth`` checkpoints
(modelling how far behind the misprediction is discovered) and
re-executes from there.  When the checkpoint stack is full, the oldest
checkpoint commits — broadcasting its commit packet on the bus exactly
like a TM transaction.

The system owns the processor's architectural memory, its L1 cache and
the one stack of live checkpoints, and does all timing and accounting;
the scheme (:mod:`repro.checkpoint.schemes`) supplies the disambiguation
hooks, as TM and TLS schemes do.  Each live checkpoint's record keeps
its write log plus the exact words it read and lines it wrote — the
oracle that classifies rollback invalidations as true or false,
mirroring how the TM/TLS systems classify squashes (Table 7); no
decision consults it.

The public primitives (:meth:`~CheckpointSystem.take_checkpoint`,
:meth:`~CheckpointSystem.load`, :meth:`~CheckpointSystem.store`,
:meth:`~CheckpointSystem.commit_oldest`,
:meth:`~CheckpointSystem.rollback_to` and the side-effect-free
:meth:`~CheckpointSystem.value_of`) drive the processor by hand;
:meth:`~CheckpointSystem.run` composes them over the epoch stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cache.cache import Cache
from repro.cache.line import CacheLine
from repro.checkpoint.params import CHECKPOINT_DEFAULTS, CheckpointParams
from repro.checkpoint.schemes import CheckpointScheme
from repro.checkpoint.stats import CheckpointStats
from repro.checkpoint.workload import CheckpointEpoch
from repro.coherence.message import MessageKind
from repro.errors import ConfigurationError, SimulationError
from repro.mem.address import LINE_SHIFT, WORD_SHIFT
from repro.mem.memory import WordMemory
from repro.obs import Observability
from repro.spec.config import RunConfig
from repro.spec.system import SpecSystemCore

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``MessageKind.FILL`` goes through the enum
# metaclass's ``__getattr__``, several times slower than a module
# global, and the access path passes them per miss and per writeback.
_WRITEBACK = MessageKind.WRITEBACK
_FILL = MessageKind.FILL


class EpochRecord:
    """One live checkpoint: its epoch, write log and exact footprint."""

    __slots__ = (
        "epoch_pos", "checkpoint_id", "write_log", "read_words",
        "write_lines", "context",
    )

    def __init__(self, epoch_pos: int, checkpoint_id: int) -> None:
        self.epoch_pos = epoch_pos
        self.checkpoint_id = checkpoint_id
        #: Word address -> the value this epoch last stored there; its
        #: keys are the epoch's exact write set.
        self.write_log: Dict[int, int] = {}
        self.read_words: Set[int] = set()
        self.write_lines: Set[int] = set()
        #: The Bulk scheme's version context (``None`` under Exact).
        self.context = None


class CheckpointSystem(SpecSystemCore):
    """One checkpointed processor running an epoch stream to completion."""

    def __init__(
        self,
        scheme: CheckpointScheme,
        epochs: List[CheckpointEpoch],
        params: CheckpointParams = CHECKPOINT_DEFAULTS,
        rollback_depth: int = 1,
        obs: Optional[Observability] = None,
        config: Optional[RunConfig] = None,
    ) -> None:
        if rollback_depth < 1:
            raise ConfigurationError(
                f"rollback depth must be at least 1, got {rollback_depth}"
            )
        if rollback_depth > params.max_live_checkpoints:
            raise ConfigurationError(
                f"rollback depth {rollback_depth} exceeds the "
                f"{params.max_live_checkpoints} live checkpoints"
            )
        self.scheme = scheme
        self.stats = CheckpointStats()
        self._init_spec_core(
            params, obs, config, prefix="checkpoint",
            unit_timer="checkpoint.epoch_cycles",
        )
        self.epochs = epochs
        self.rollback_depth = rollback_depth
        self.clock = 0
        self.memory = WordMemory()
        self.cache = Cache(params.geometry)
        #: Live checkpoints, oldest first.
        self.live: List[EpochRecord] = []
        if self.metrics is not None:
            self._m_takes = self.metrics.counter("checkpoint.takes")
            self._m_rollbacks = self.metrics.counter("checkpoint.rollbacks")
        else:
            self._m_takes = None
            self._m_rollbacks = None
        # The system is its own one processor.
        scheme.setup_processor(self, self)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self) -> CheckpointStats:
        """Execute every epoch; returns the final statistics."""
        self.trace_run_begin(
            "checkpoint",
            epochs=len(self.epochs),
            rollback_depth=self.rollback_depth,
        )
        resolved: Set[int] = set()
        position = 0
        while position < len(self.epochs):
            if len(self.live) >= self.params.max_live_checkpoints:
                self.commit_oldest()
            self._take_checkpoint(position)
            epoch = self.epochs[position]
            for kind, byte_address, value in epoch.ops:
                if kind == "load":
                    self.load(byte_address)
                else:
                    self.store(byte_address, value)
            if epoch.mispredicted and position not in resolved:
                # The misprediction is discovered after the epoch ran;
                # resolving it consumes the flag, so re-execution of this
                # epoch (and its ancestors) proceeds normally.
                resolved.add(position)
                target = self.live[-min(self.rollback_depth, len(self.live))]
                self.rollback_to(target.checkpoint_id)
                position = target.epoch_pos
                continue
            position += 1
        while self.live:
            self.commit_oldest()
        self.stats.cycles = self.clock
        self.finalize_bus_stats()
        self.trace_run_end()
        return self.stats

    # ------------------------------------------------------------------
    # Checkpoint lifecycle
    # ------------------------------------------------------------------

    def take_checkpoint(self) -> int:
        """Start a new speculative epoch; returns its checkpoint id.
        Without an epoch stream, each epoch is numbered by its id."""
        return self._take_checkpoint(self.stats.checkpoints_taken)

    def _take_checkpoint(self, epoch_pos: int) -> int:
        if len(self.live) >= self.params.max_live_checkpoints:
            raise SimulationError(
                "out of checkpoints: commit or roll back first"
            )
        checkpoint_id = self.stats.checkpoints_taken
        record = EpochRecord(epoch_pos, checkpoint_id)
        self.scheme.on_take(self, record)
        self.clock += self.params.checkpoint_overhead_cycles
        self.live.append(record)
        self.stats.checkpoints_taken += 1
        if self._m_takes is not None:
            self._m_takes.inc()
        if self.obs_enabled:
            self.trace_event(
                "checkpoint.take",
                checkpoint=checkpoint_id,
                epoch=epoch_pos,
                clock=self.clock,
            )
        self.start_unit_timer(checkpoint_id, self.clock)
        return checkpoint_id

    def commit_oldest(self) -> None:
        """Make the oldest checkpoint architectural.

        Its commit packet goes on the bus, its log is applied to memory
        and the scheme releases its state; its lines no live epoch owns
        are written back.
        """
        if not self.live:
            raise SimulationError("no checkpoint to commit")
        record = self.live.pop(0)
        packet_bytes = self.scheme.commit_packet(self, record)
        self.clock = self.charge_commit_bus(self.clock, packet_bytes, port=0)
        for word, value in record.write_log.items():
            self.memory.store(word, value)
        self.scheme.commit_cleanup(self, record)
        # Committed data still cached and not owned by a live epoch
        # becomes non-speculative dirty state; write it back so memory
        # and cache agree (this model keeps them mirrored).
        committed_lines = record.write_lines.difference(
            *(live.write_lines for live in self.live)
        )
        for line_address in sorted(committed_lines):
            line = self.cache.lookup(line_address, touch=False)
            if line is not None and line.dirty:
                self.bus.record(_WRITEBACK, now=self.clock, port=0)
                self.cache.clean(line_address)
        self.stats.committed_checkpoints += 1
        self.stats.read_set_words += len(record.read_words)
        self.stats.write_set_words += len(record.write_log)
        if self.obs_enabled:
            self.note_commit(
                packet_bytes,
                record.checkpoint_id,
                self.clock,
                checkpoint=record.checkpoint_id,
                epoch=record.epoch_pos,
                write_words=len(record.write_log),
            )

    def rollback_to(self, checkpoint_id: int) -> int:
        """Restore the state as of ``take_checkpoint`` of ``checkpoint_id``.

        That epoch and every younger one are discarded: the scheme
        invalidates their dirty lines and their logs are dropped.
        Returns the number of epochs discarded.
        """
        for keep, target in enumerate(self.live):
            if target.checkpoint_id == checkpoint_id:
                break
        else:
            raise SimulationError(f"unknown checkpoint {checkpoint_id}")
        discarded = self.live[keep:]
        del self.live[keep:]
        invalidated = self.scheme.rollback_invalidate(self, discarded)
        written = set().union(*(record.write_lines for record in discarded))
        false_invalidated = sum(
            1 for line_address in invalidated if line_address not in written
        )
        self.clock += self.params.rollback_overhead_cycles
        for record in discarded:
            self._unit_start_clock.pop(record.checkpoint_id, None)
        self.stats.rollbacks += 1
        self.stats.squashes += len(discarded)
        self.stats.commit_invalidations += len(invalidated)
        self.stats.false_commit_invalidations += false_invalidated
        if self._m_rollbacks is not None:
            self._m_rollbacks.inc()
        if self.obs_enabled:
            self.note_squash(
                "misprediction",
                checkpoint=checkpoint_id,
                epoch=target.epoch_pos,
                discarded=len(discarded),
                invalidated=len(invalidated),
                false_invalidated=false_invalidated,
                clock=self.clock,
            )
        self.scheme.on_rollback(
            self, len(discarded), len(invalidated), false_invalidated
        )
        return len(discarded)

    # ------------------------------------------------------------------
    # Speculative execution
    # ------------------------------------------------------------------

    def load(self, byte_address: int) -> int:
        """Load a word in the newest checkpoint; returns its value."""
        record = self._newest()
        self._access(byte_address >> LINE_SHIFT)
        self.scheme.record_load(self, byte_address)
        record.read_words.add(byte_address >> WORD_SHIFT)
        return self.value_of(byte_address)

    def store(self, byte_address: int, value: int) -> None:
        """Store a word into the newest checkpoint."""
        record = self._newest()
        line_address = byte_address >> LINE_SHIFT
        line = self._access(line_address)
        self.scheme.prepare_store(self, line_address)
        word = byte_address >> WORD_SHIFT
        line.write_word(word, value)
        record.write_log[word] = value & 0xFFFFFFFF
        self.scheme.record_store(self, byte_address)
        record.write_lines.add(line_address)

    def value_of(self, byte_address: int) -> int:
        """The newest live value of a word: the youngest checkpoint's
        logged store, else memory.  No timing, cache or signature
        effect."""
        word = byte_address >> WORD_SHIFT
        for record in reversed(self.live):
            if word in record.write_log:
                return record.write_log[word]
        return self.memory.load(word)

    def _newest(self) -> EpochRecord:
        if not self.live:
            raise SimulationError(
                "no live checkpoint: call take_checkpoint() first"
            )
        return self.live[-1]

    def _access(self, line_address: int) -> CacheLine:
        """Charge one access to a line and return it.  A miss fills the
        line's newest live view and writes back a dirty victim."""
        line = self.cache.lookup(line_address)
        if line is not None:
            self.clock += self.params.hit_cycles
            return line
        self.clock += self.params.miss_cycles
        self.bus.record(_FILL, now=self.clock, port=0)
        words = list(self.memory.load_line(line_address))
        base = line_address << 4
        for record in self.live:
            for offset in range(16):
                value = record.write_log.get(base + offset)
                if value is not None:
                    words[offset] = value
        victim = self.cache.fill(line_address, words)
        if victim is not None and victim.dirty:
            self.bus.record(_WRITEBACK, now=self.clock, port=0)
        return self.cache.lookup(line_address, touch=False)
