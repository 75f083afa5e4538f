"""Checkpoint-substrate schemes: Bulk signatures vs an exact-log baseline.

Both schemes drive an *engine* with the same duck-typed surface —
``take_checkpoint`` / ``rollback_to`` / ``commit_oldest`` / ``load`` /
``store`` plus a ``cache`` and a ``memory`` — so the
:class:`~repro.checkpoint.system.CheckpointSystem` run loop is scheme
agnostic:

* :class:`BulkCheckpointScheme` wraps the paper's
  :class:`~repro.checkpoint.processor.CheckpointedProcessor` — one BDM
  version context per checkpoint, rollback by signature expansion (which
  can falsely invalidate aliased lines), commit broadcast as one
  RLE-compressed write signature.
* :class:`ExactCheckpointScheme` is the idealised hardware the paper
  compares against: per-checkpoint exact write logs, rollback
  invalidates precisely the discarded epochs' written lines (zero false
  invalidations by construction), commit enumerates one invalidation
  per written line — the Lazy-style cost model of
  :mod:`repro.tm.lazy`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.cache.cache import Cache
from repro.cache.geometry import CacheGeometry, TM_L1_GEOMETRY
from repro.checkpoint.params import CheckpointParams
from repro.checkpoint.processor import CheckpointedProcessor
from repro.coherence.message import MessageKind
from repro.core.backend.base import SignatureBackend
from repro.core.rle import rle_encode
from repro.errors import SimulationError
from repro.mem.address import WORD_SHIFT, byte_to_line, byte_to_word
from repro.mem.memory import WordMemory
from repro.spec.scheme import SpecScheme

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checkpoint.system import CheckpointSystem, EpochRecord


class CheckpointScheme(SpecScheme):
    """Hook surface a checkpoint scheme implements."""

    def make_engine(
        self, params: CheckpointParams, backend: SignatureBackend
    ):
        """Build the scheme's checkpointed execution engine; ``backend``
        is the signature backend the system resolved for the run."""
        raise NotImplementedError

    def commit_packet(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> int:
        """Bus bytes of the commit broadcast for the oldest checkpoint.

        Called *before* the engine releases the checkpoint, so the Bulk
        scheme can still read its write signature.
        """
        raise NotImplementedError

    def on_rollback(
        self,
        system: "CheckpointSystem",
        discarded: int,
        invalidated: int,
        false_invalidated: int,
    ) -> None:
        """Observability hook after a rollback's cache invalidation."""

    def export_processor_state(
        self, system: "CheckpointSystem", proc: object
    ) -> List:
        """(checkpoint id, write log) per live checkpoint, oldest first.

        Both engines keep exact per-checkpoint write logs, so — unlike
        TM/TLS, where signature → exact forces a conservative squash —
        the checkpoint swap conversion is lossless in either direction:
        the system replays these logs through the replacement engine.
        """
        return system.engine.live_write_logs()


class BulkCheckpointScheme(CheckpointScheme):
    """Checkpoints on Bulk signatures (Section 4.5 / Figure 7)."""

    name = "Bulk"
    state_kind = "signature"

    def make_engine(
        self, params: CheckpointParams, backend: SignatureBackend
    ) -> CheckpointedProcessor:
        return CheckpointedProcessor(
            memory=WordMemory(),
            config=params.signature_config,
            geometry=params.geometry,
            max_checkpoints=params.max_live_checkpoints,
            backend=backend,
        )

    def commit_packet(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> int:
        """One RLE-compressed signature, regardless of write-set size."""
        signature = system.engine.oldest().context.write_signature
        return system.bus.record(
            MessageKind.COMMIT_SIGNATURE,
            payload_bytes=max(1, len(rle_encode(signature))),
            is_commit_traffic=True,
        )

    def on_rollback(
        self,
        system: "CheckpointSystem",
        discarded: int,
        invalidated: int,
        false_invalidated: int,
    ) -> None:
        system.note_sig_expansion(
            "rollback-invalidate",
            expansions=discarded,
            invalidated=invalidated,
            false_invalidated=false_invalidated,
        )

    def import_processor_state(
        self, system: "CheckpointSystem", proc: object, state: object
    ) -> None:
        """Replay one live epoch's exact read set into the context the
        swap just rebuilt for it.

        Writes reach the signatures through the engine-store replay; the
        read set only exists in the system's oracle record, so it is
        inserted here (exact → signature insertion is total, Section 3).
        ``state`` is the epoch's :class:`~repro.checkpoint.system.
        EpochRecord`, passed per checkpoint during the replay.
        """
        for word in sorted(state.read_words):
            system.engine.bdm.record_load(word << WORD_SHIFT)


class ExactCheckpoint:
    """One live checkpoint of the exact engine: log + written-line set."""

    __slots__ = ("index", "write_log", "written_lines")

    def __init__(self, index: int) -> None:
        self.index = index
        self.write_log: Dict[int, int] = {}
        self.written_lines: Set[int] = set()


class ExactCheckpointEngine:
    """Idealised checkpointing: exact per-checkpoint write logs.

    API-compatible with :class:`CheckpointedProcessor` (the subset the
    system uses).  Rollback invalidates exactly the cached lines the
    discarded epochs wrote — no signatures, hence no aliasing and no
    false invalidations — and there is no Set Restriction, so
    ``safe_writebacks`` stays zero.
    """

    def __init__(
        self,
        memory: Optional[WordMemory] = None,
        geometry: CacheGeometry = TM_L1_GEOMETRY,
        max_checkpoints: int = 4,
    ) -> None:
        self.memory = memory if memory is not None else WordMemory()
        self.cache = Cache(geometry)
        self.max_checkpoints = max_checkpoints
        self._checkpoints: List[ExactCheckpoint] = []
        self._next_index = 0
        #: Always zero — kept for engine API compatibility.
        self.safe_writebacks = 0

    @property
    def depth(self) -> int:
        return len(self._checkpoints)

    def take_checkpoint(self) -> int:
        if len(self._checkpoints) >= self.max_checkpoints:
            raise SimulationError(
                "out of checkpoints: commit or roll back first"
            )
        checkpoint = ExactCheckpoint(self._next_index)
        self._next_index += 1
        self._checkpoints.append(checkpoint)
        return checkpoint.index

    def oldest(self) -> ExactCheckpoint:
        if not self._checkpoints:
            raise SimulationError("no live checkpoint")
        return self._checkpoints[0]

    def rollback_to(self, checkpoint_id: int) -> int:
        positions = [c.index for c in self._checkpoints]
        if checkpoint_id not in positions:
            raise SimulationError(f"unknown checkpoint {checkpoint_id}")
        keep = positions.index(checkpoint_id)
        discarded = self._checkpoints[keep:]
        doomed: Set[int] = set()
        for checkpoint in discarded:
            doomed.update(checkpoint.written_lines)
        for line_address in sorted(doomed):
            line = self.cache.lookup(line_address, touch=False)
            if line is not None and line.dirty:
                self.cache.invalidate(line_address)
        del self._checkpoints[keep:]
        return len(discarded)

    def commit_oldest(self) -> int:
        if not self._checkpoints:
            raise SimulationError("no checkpoint to commit")
        checkpoint = self._checkpoints.pop(0)
        for word, value in checkpoint.write_log.items():
            self.memory.store(word, value)
        return checkpoint.index

    def commit_all(self) -> None:
        while self._checkpoints:
            self.commit_oldest()

    def live_write_logs(self) -> List:
        """(checkpoint id, write-log copy) per live checkpoint, oldest
        first — the hot-swap export a replacement engine replays."""
        return [(c.index, dict(c.write_log)) for c in self._checkpoints]

    def load(self, byte_address: int) -> int:
        word = byte_to_word(byte_address)
        for checkpoint in reversed(self._checkpoints):
            if word in checkpoint.write_log:
                return checkpoint.write_log[word]
        return self.memory.load(word)

    def store(self, byte_address: int, value: int) -> None:
        if not self._checkpoints:
            raise SimulationError(
                "no live checkpoint: call take_checkpoint() first"
            )
        current = self._checkpoints[-1]
        line_address = byte_to_line(byte_address)
        line = self.cache.lookup(line_address)
        if line is None:
            self.cache.fill(line_address, self.line_view(line_address))
            line = self.cache.lookup(line_address, touch=False)
            assert line is not None
        word = byte_to_word(byte_address)
        line.write_word(word, value)
        current.write_log[word] = value & 0xFFFFFFFF
        current.written_lines.add(line_address)

    def line_view(self, line_address: int) -> List[int]:
        words = list(self.memory.load_line(line_address))
        base = line_address << 4
        for checkpoint in self._checkpoints:
            for offset in range(16):
                value = checkpoint.write_log.get(base + offset)
                if value is not None:
                    words[offset] = value
        return words


class ExactCheckpointScheme(CheckpointScheme):
    """The exact-log baseline the Bulk checkpoint scheme is judged against."""

    name = "Exact"

    def make_engine(
        self, params: CheckpointParams, backend: SignatureBackend
    ) -> ExactCheckpointEngine:
        return ExactCheckpointEngine(
            memory=WordMemory(),
            geometry=params.geometry,
            max_checkpoints=params.max_live_checkpoints,
        )

    def commit_packet(
        self, system: "CheckpointSystem", record: "EpochRecord"
    ) -> int:
        """One enumerated invalidation per written line (the exact log's
        line-grain footprint), as in the Lazy TM commit."""
        total = 0
        for _ in range(len(record.write_lines)):
            total += system.bus.record(
                MessageKind.INVALIDATION, is_commit_traffic=True
            )
        return total
