"""Checkpoint-substrate architectural and timing parameters.

The checkpointed processor shares the TM column of Table 5 where it can
(L1 geometry, signature configuration, hit/miss latencies, bus model);
what is new is the checkpoint lifecycle: the cost of taking a register
checkpoint, of rolling the processor back to one, and the number of
checkpoints the BDM can hold live at once (one version context each,
Figure 7's multi-checkpoint use).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.geometry import CacheGeometry, TM_L1_GEOMETRY
from repro.core.signature_config import SignatureConfig, default_tm_config


@dataclass(frozen=True)
class CheckpointParams:
    """Everything a :class:`~repro.checkpoint.system.CheckpointSystem`
    needs to be built."""

    #: L1 geometry (Table 5: 32 KB, 4-way, 64 B lines).
    geometry: CacheGeometry = TM_L1_GEOMETRY
    #: Signature configuration (S14 over line addresses).  Only the Bulk
    #: scheme uses it.
    signature_config: SignatureConfig = field(default_factory=default_tm_config)
    #: Live checkpoints the processor can hold — one BDM version context
    #: each (Figure 7: contexts buffer "multiple checkpoints").
    max_live_checkpoints: int = 4

    # -- timing (cycles) ------------------------------------------------
    #: L1 hit latency (Table 5: round trip 2 cycles).
    hit_cycles: int = 2
    #: Fill latency for a miss served by memory.
    miss_cycles: int = 30
    #: Cycles to take a checkpoint (snapshot the register state and
    #: allocate a version context).
    checkpoint_overhead_cycles: int = 5
    #: Cycles to restore the register checkpoint on a rollback (the
    #: cache invalidations themselves are gang operations).
    rollback_overhead_cycles: int = 30
    #: Fixed cycles charged on top of bus occupancy when the oldest
    #: checkpoint commits.
    commit_overhead_cycles: int = 20

    # -- bus -------------------------------------------------------------
    #: Fixed bus occupancy of a commit slot.
    commit_occupancy_cycles: int = 10
    #: Bus transfer rate for converting packet bytes into occupancy.
    bus_bytes_per_cycle: int = 16


#: The default checkpoint configuration (TM cache/bus, 4 checkpoints).
CHECKPOINT_DEFAULTS = CheckpointParams()
