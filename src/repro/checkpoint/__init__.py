"""Checkpointed execution on Bulk signatures.

The paper's third motivating environment (Section 1): "Checkpointed
multiprocessors provide primitives to enable aggressive thread
speculation", and Figure 7 notes the BDM's version contexts are "useful
for buffering the state of multiple threads or multiple checkpoints".

The substrate is built like TM and TLS: a system that owns the machine,
timing, oracle and observability, plus scheme hooks.
:class:`~repro.checkpoint.system.CheckpointSystem` is one processor with
a stack of live checkpoints; it runs an epoch stream to completion (or
is driven by hand through its ``take_checkpoint`` / ``load`` /
``store`` / ``commit_oldest`` / ``rollback_to`` primitives).  Under
:class:`~repro.checkpoint.schemes.BulkCheckpointScheme` each checkpoint
owns a BDM version context; stores update the cache speculatively under
the Set Restriction; rolling back bulk-invalidates the discarded
contexts' dirty lines (safe by delta-exactness, as in a squash) and
replays nothing; committing the oldest checkpoint makes its log
architectural and gang-clears its signatures — the same primitives TM
and TLS are built from, composed differently.
:class:`~repro.checkpoint.schemes.ExactCheckpointScheme` is the
exact-log baseline it is judged against.

:mod:`~repro.checkpoint.params` and :mod:`~repro.checkpoint.workload`
describe machines and epoch streams.
"""

from repro.checkpoint.params import CHECKPOINT_DEFAULTS, CheckpointParams
from repro.checkpoint.schemes import (
    BulkCheckpointScheme,
    CheckpointScheme,
    ExactCheckpointScheme,
)
from repro.checkpoint.stats import CheckpointStats
from repro.checkpoint.system import CheckpointSystem, EpochRecord
from repro.checkpoint.workload import (
    CHECKPOINT_WORKLOADS,
    CheckpointEpoch,
    build_checkpoint_workload,
)

__all__ = [
    "CHECKPOINT_DEFAULTS",
    "CHECKPOINT_WORKLOADS",
    "BulkCheckpointScheme",
    "CheckpointEpoch",
    "CheckpointParams",
    "CheckpointScheme",
    "CheckpointStats",
    "CheckpointSystem",
    "EpochRecord",
    "ExactCheckpointScheme",
    "build_checkpoint_workload",
]
