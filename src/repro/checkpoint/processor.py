"""A single checkpointed processor built from Bulk primitives.

Execution proceeds through a stack of *checkpoints*.  Each checkpoint is
one BDM version context (R/W signatures) plus a write log; the cache
holds the speculative data with no checkpoint metadata at all — which
dirty lines belong to which checkpoint is derivable from the decoded
write signatures, exactly as Section 4.5 describes for threads.

Supported operations:

* :meth:`CheckpointedProcessor.take_checkpoint` — push a new context;
* :meth:`CheckpointedProcessor.load` / :meth:`~CheckpointedProcessor.store`
  — speculative execution against the newest checkpoint;
* :meth:`CheckpointedProcessor.rollback_to` — discard every checkpoint
  younger than the target: bulk-invalidate their dirty lines via
  signature expansion and drop their logs;
* :meth:`CheckpointedProcessor.commit_oldest` — make the oldest
  checkpoint architectural (apply its log to memory, clear its
  signatures, fold its cache ownership into the non-speculative state).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.cache import Cache
from repro.cache.geometry import CacheGeometry, TM_L1_GEOMETRY
from repro.core.backend.base import SignatureBackend
from repro.core.bdm import (
    BulkDisambiguationModule,
    SetRestrictionAction,
    VersionContext,
)
from repro.core.signature_config import SignatureConfig, default_tm_config
from repro.errors import SimulationError
from repro.mem.address import byte_to_line, byte_to_word
from repro.mem.memory import WordMemory


class Checkpoint:
    """One live checkpoint: a version context plus its write log."""

    __slots__ = ("index", "context", "write_log")

    def __init__(self, index: int, context: VersionContext) -> None:
        self.index = index
        self.context = context
        self.write_log: Dict[int, int] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Checkpoint(index={self.index}, writes={len(self.write_log)})"


class CheckpointedProcessor:
    """A processor whose execution can be rolled back to checkpoints."""

    def __init__(
        self,
        memory: Optional[WordMemory] = None,
        config: Optional[SignatureConfig] = None,
        geometry: CacheGeometry = TM_L1_GEOMETRY,
        max_checkpoints: int = 4,
        backend: Optional["SignatureBackend"] = None,
    ) -> None:
        self.memory = memory if memory is not None else WordMemory()
        self.config = config if config is not None else default_tm_config()
        self.cache = Cache(geometry)
        self.bdm = BulkDisambiguationModule(
            self.config, geometry, num_contexts=max_checkpoints, backend=backend
        )
        self._checkpoints: List[Checkpoint] = []
        self._next_index = 0
        #: Safe writebacks performed for the Set Restriction.
        self.safe_writebacks = 0

    # ------------------------------------------------------------------
    # Checkpoint lifecycle
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of live checkpoints."""
        return len(self._checkpoints)

    def take_checkpoint(self) -> int:
        """Start a new speculative epoch; returns its checkpoint id."""
        context = self.bdm.allocate_context(owner=self._next_index)
        if context is None:
            raise SimulationError(
                "out of version contexts: commit or roll back first"
            )
        checkpoint = Checkpoint(self._next_index, context)
        self._next_index += 1
        self._checkpoints.append(checkpoint)
        self.bdm.set_running(context)
        return checkpoint.index

    def _current(self) -> Checkpoint:
        if not self._checkpoints:
            raise SimulationError(
                "no live checkpoint: call take_checkpoint() first"
            )
        return self._checkpoints[-1]

    def oldest(self) -> Checkpoint:
        """The oldest live checkpoint (the next to commit).

        The commit packet is built from its write signature *before*
        :meth:`commit_oldest` releases the context.
        """
        if not self._checkpoints:
            raise SimulationError("no live checkpoint")
        return self._checkpoints[0]

    def rollback_to(self, checkpoint_id: int) -> int:
        """Restore the state as of ``take_checkpoint(checkpoint_id)``.

        The target epoch and everything younger are squashed: their
        dirty lines are bulk-invalidated through each discarded context's
        write signature and their logs dropped.  Returns the number of
        epochs discarded.
        """
        positions = [c.index for c in self._checkpoints]
        if checkpoint_id not in positions:
            raise SimulationError(f"unknown checkpoint {checkpoint_id}")
        keep = positions.index(checkpoint_id)
        discarded = self._checkpoints[keep:]
        # Invalidate every discarded epoch's dirty lines in one batched
        # pass (youngest first, matching the per-epoch order), then
        # release the contexts.  Releasing after the walk is equivalent
        # to the interleaved order: release only clears the released
        # context's own signatures, which the batch snapshotted already.
        self.bdm.squash_invalidate_contexts(
            self.cache, [c.context for c in reversed(discarded)]
        )
        for checkpoint in discarded:
            self.bdm.release_context(checkpoint.context)
        del self._checkpoints[keep:]
        self.bdm.set_running(
            self._checkpoints[-1].context if self._checkpoints else None
        )
        return len(discarded)

    def commit_oldest(self) -> int:
        """Make the oldest checkpoint architectural; returns its id.

        Its write log is applied to memory and its signatures are
        gang-cleared ("commit by clearing a signature", Table 2); its
        dirty cache lines simply become non-speculative.
        """
        if not self._checkpoints:
            raise SimulationError("no checkpoint to commit")
        checkpoint = self._checkpoints.pop(0)
        for word, value in checkpoint.write_log.items():
            self.memory.store(word, value)
        self.bdm.release_context(checkpoint.context)
        if self._checkpoints:
            self.bdm.set_running(self._checkpoints[-1].context)
        return checkpoint.index

    def commit_all(self) -> None:
        """Commit every live checkpoint, oldest first."""
        while self._checkpoints:
            self.commit_oldest()

    # ------------------------------------------------------------------
    # Speculative execution
    # ------------------------------------------------------------------

    def load(self, byte_address: int) -> int:
        """Speculatively load a word (newest checkpoint's view)."""
        current = self._current()
        self.bdm.set_running(current.context)
        self.bdm.record_load(byte_address)
        word = byte_to_word(byte_address)
        for checkpoint in reversed(self._checkpoints):
            if word in checkpoint.write_log:
                return checkpoint.write_log[word]
        return self.memory.load(word)

    def store(self, byte_address: int, value: int) -> None:
        """Speculatively store a word into the newest checkpoint."""
        current = self._current()
        self.bdm.set_running(current.context)
        line_address = byte_to_line(byte_address)
        action = self.bdm.store_set_action(line_address)
        if action is SetRestrictionAction.WRITEBACK_NONSPEC:
            set_index = self.cache.set_index(line_address)
            for line in self.cache.dirty_lines_in_set(set_index):
                self.cache.clean(line.line_address)
                self.safe_writebacks += 1
        elif action is SetRestrictionAction.CONFLICT:
            # An older checkpoint owns the set.  A single processor
            # cannot squash its own past; fold the epochs together by
            # treating the ownership as inherited (the "merging the two
            # threads" option of Section 4.5 — here: merging epochs is
            # always safe because rollback discards *suffixes*, and a
            # set owned by an older checkpoint is invalidated by that
            # checkpoint's own signature when it rolls back).
            pass
        line = self.cache.lookup(line_address)
        if line is None:
            self.cache.fill(line_address, self._line_view(line_address))
            line = self.cache.lookup(line_address, touch=False)
            assert line is not None
        word = byte_to_word(byte_address)
        line.write_word(word, value)
        current.write_log[word] = value & 0xFFFFFFFF
        self.bdm.record_store(byte_address)

    def line_view(self, line_address: int):
        """The newest speculative view of a line's 16 words (public:
        the checkpoint system's timing model fills load misses with it)."""
        return self._line_view(line_address)

    def _line_view(self, line_address: int):
        """The newest speculative view of a line's 16 words."""
        words = list(self.memory.load_line(line_address))
        base = line_address << 4
        for checkpoint in self._checkpoints:
            for offset in range(16):
                value = checkpoint.write_log.get(base + offset)
                if value is not None:
                    words[offset] = value
        return words

    def architectural_value(self, byte_address: int) -> int:
        """The committed (non-speculative) value of a word."""
        return self.memory.load(byte_to_word(byte_address))

    def speculative_value(self, byte_address: int) -> int:
        """The newest checkpoint's view of a word (no signature update)."""
        word = byte_to_word(byte_address)
        for checkpoint in reversed(self._checkpoints):
            if word in checkpoint.write_log:
                return checkpoint.write_log[word]
        return self.memory.load(word)
