"""TM architectural and timing parameters (Table 5's TM column).

The paper's TM simulation is trace-driven with a detailed memory model; we
use a functional memory/cache model with a flat per-operation timing
model.  Absolute cycle counts therefore differ from the paper, but all
schemes share these parameters, so relative results (Figure 11's
speedups over Eager, Figure 13's relative bandwidth) are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.geometry import CacheGeometry, TM_L1_GEOMETRY
from repro.core.signature_config import SignatureConfig, default_tm_config


@dataclass(frozen=True)
class TmParams:
    """Everything a :class:`~repro.tm.system.TmSystem` needs to be built."""

    #: Number of processors (Table 5: 8 for TM).
    num_processors: int = 8
    #: Hardware threads sharing one core's cache and BDM (1 = the
    #: paper's evaluated configuration).  With more than one, the BDM
    #: holds several active version contexts at once — the multi-version
    #: support of Figure 7 — and the Set Restriction's "dirty lines of
    #: another speculative thread" conflicts (Section 4.5) become
    #: reachable in TM.
    threads_per_core: int = 1
    #: L1 geometry (Table 5: 32 KB, 4-way, 64 B lines).
    geometry: CacheGeometry = TM_L1_GEOMETRY
    #: Signature configuration (S14 over line addresses, Table 5
    #: permutation).  Only used by the Bulk scheme.
    signature_config: SignatureConfig = field(default_factory=default_tm_config)
    #: Version contexts per BDM (running + preempted threads).
    bdm_contexts: int = 4

    # -- timing (cycles) ------------------------------------------------
    #: L1 hit latency (Table 5: round trip 2 cycles).
    hit_cycles: int = 2
    #: Fill latency for a miss served by memory.
    miss_cycles: int = 30
    #: Extra latency when a miss must consult the overflow area.
    overflow_access_cycles: int = 60
    #: Fixed cycles charged to the committer on top of bus occupancy.
    commit_overhead_cycles: int = 20
    #: Cycles to begin a transaction (checkpoint registers).
    begin_overhead_cycles: int = 5
    #: Cycles charged to a squashed thread before it restarts.
    squash_overhead_cycles: int = 30
    #: Backoff applied when the livelock mitigation stalls a thread and
    #: the thread it waits for cannot be identified precisely.
    stall_retry_cycles: int = 50

    # -- bus -------------------------------------------------------------
    #: Fixed bus occupancy of a commit slot.
    commit_occupancy_cycles: int = 10
    #: Bus transfer rate for converting packet bytes into occupancy.
    bus_bytes_per_cycle: int = 16

    # -- policy ----------------------------------------------------------
    #: Eager only: enable the footnote-2 mitigation (let the
    #: longer-running of two repeatedly conflicting threads proceed and
    #: stall the other).  Disabling it exposes the Figure 12(a) livelock.
    eager_livelock_mitigation: bool = True
    #: How many consecutive mutual squashes between a thread pair trigger
    #: the mitigation.
    livelock_threshold: int = 3
    #: Bulk only: support closed nesting with partial rollback
    #: (Section 6.2.1) — the Bulk-Partial bar of Figure 11.
    partial_rollback: bool = False
    #: Hard cap on restarts of a single transaction before the simulator
    #: declares livelock (raises SimulationError).  With the mitigation
    #: enabled this should never trigger.
    max_attempts_per_txn: int = 200


#: The paper's TM configuration.
TM_DEFAULTS = TmParams()
