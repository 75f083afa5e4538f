"""Checkpoint-substrate statistics.

Rollbacks play the role squashes play in TM/TLS: ``squashes`` counts
*discarded epochs* (one rollback of depth three discards three), so the
shared derived metrics of :class:`~repro.spec.stats.SpecStats` read the
same way across substrates.  Rollback-triggered bulk invalidations land
in the inherited ``commit_invalidations`` / ``false_commit_invalidations``
pair — for a single processor there is no remote commit, so the only
signature-expansion invalidations are rollback ones; the
``rollback_invalidations`` aliases make call sites readable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.spec.stats import SpecStats


@dataclass
class CheckpointStats(SpecStats):
    """What one checkpointed run produces."""

    #: Checkpoints made architectural.
    committed_checkpoints: int = 0
    #: Checkpoints taken (including re-executions after rollbacks).
    checkpoints_taken: int = 0
    #: Rollback events (each may discard several epochs — see
    #: ``squashes`` for the discarded-epoch count).
    rollbacks: int = 0
    #: Exact distinct words read / written by committed checkpoints.
    read_set_words: int = 0
    write_set_words: int = 0

    # -- SpecStats accessors -------------------------------------------

    @property
    def commits(self) -> int:
        return self.committed_checkpoints

    @property
    def read_set_total(self) -> int:
        return self.read_set_words

    @property
    def write_set_total(self) -> int:
        return self.write_set_words

    @property
    def dependence_total(self) -> int:
        # Rollbacks are control mispredictions, not data dependences.
        return 0

    # -- readable aliases ----------------------------------------------

    @property
    def rollback_invalidations(self) -> int:
        """Cache lines invalidated by rollbacks."""
        return self.commit_invalidations

    @property
    def false_rollback_invalidations(self) -> int:
        """Rollback-invalidated lines the discarded epochs never wrote."""
        return self.false_commit_invalidations
