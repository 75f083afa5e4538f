"""TLS architectural and timing parameters (Table 5's TLS column)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.geometry import CacheGeometry, TLS_L1_GEOMETRY
from repro.core.signature_config import SignatureConfig, default_tls_config


@dataclass(frozen=True)
class TlsParams:
    """Everything a :class:`~repro.tls.system.TlsSystem` needs."""

    #: Number of processors (Table 5: 4 for TLS).
    num_processors: int = 4
    #: L1 geometry (Table 5: 16 KB, 4-way, 64 B lines).
    geometry: CacheGeometry = TLS_L1_GEOMETRY
    #: Signature configuration (S14 over *word* addresses, Table 5
    #: permutation) — TLS disambiguates at word grain (Section 7.1).
    signature_config: SignatureConfig = field(default_factory=default_tls_config)
    #: BDM version contexts per processor; more than one lets a processor
    #: retain a finished task's state and run the next task (the
    #: multi-versioned cache motivation of Section 2).
    bdm_contexts: int = 4
    #: Resident task slots per processor (1 = stall until commit;
    #: >1 exercises multi-versioning and the Wr-Wr Set Restriction
    #: conflicts of Table 6).
    tasks_per_processor: int = 2

    # -- timing (cycles) ------------------------------------------------
    hit_cycles: int = 2
    miss_cycles: int = 30
    #: Overhead charged when a task is dispatched onto a processor.
    spawn_overhead_cycles: int = 12
    commit_overhead_cycles: int = 10
    squash_overhead_cycles: int = 30

    # -- bus -------------------------------------------------------------
    commit_occupancy_cycles: int = 6
    bus_bytes_per_cycle: int = 16

    # -- policy ----------------------------------------------------------
    #: Hard cap on restarts of a single task (livelock guard).
    max_attempts_per_task: int = 200


#: The paper's TLS configuration.
TLS_DEFAULTS = TlsParams()
