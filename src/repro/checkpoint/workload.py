"""Synthetic single-processor workloads for the checkpoint substrate.

An execution is a sequence of *epochs*; each epoch is the straight-line
code between two checkpoints, expressed as loads and stores, plus a flag
saying whether the epoch turns out to be mispredicted (a failed
speculation that forces a rollback once discovered).

Three profiles exercise the interesting regimes:

* ``predictor`` — branch-predictor-style speculation: a hot working set
  with frequent, shallow mispredictions.  Rollbacks are common, so the
  cost of bulk invalidation (and its false invalidations) dominates.
* ``hotset`` — store-heavy blocked computation over a small set: long
  epochs, rare mispredictions, big write sets.  Commit packets dominate.
* ``stream`` — a streaming pass over a working set larger than the L1:
  fills dominate and the cache churns, so rollback invalidation hits
  mostly-evicted state.

Generation is pure: ``random.Random(f"{app}:{seed}")`` string seeding is
stable across processes, so the same ``(app, num_epochs, seed)`` always
produces byte-identical op streams (the grid runner's determinism
contract relies on this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError

#: One operation: ("load", byte_address, 0) or ("store", byte_address, value).
CheckpointOp = Tuple[str, int, int]


class CheckpointEpoch:
    """One epoch: its operations and whether it was mispredicted."""

    __slots__ = ("ops", "mispredicted")

    def __init__(self, ops: Tuple[CheckpointOp, ...], mispredicted: bool) -> None:
        self.ops = ops
        self.mispredicted = mispredicted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", mispredicted" if self.mispredicted else ""
        return f"CheckpointEpoch(ops={len(self.ops)}{flag})"


@dataclass(frozen=True)
class WorkloadProfile:
    """Knobs of one synthetic checkpoint workload."""

    description: str
    #: Total distinct lines the workload touches.
    working_set_lines: int
    #: Size of the hot subset favoured by non-sequential profiles.
    hot_lines: int
    #: Probability an access lands in the hot subset.
    hot_fraction: float
    #: Loads + stores per epoch.
    ops_per_epoch: int
    #: Probability an op is a store.
    store_fraction: float
    #: Probability an epoch is mispredicted (forces a rollback).
    mispredict_rate: float
    #: Walk the working set sequentially instead of sampling it.
    sequential: bool = False


#: The checkpoint substrate's workload suite.
CHECKPOINT_WORKLOADS: Dict[str, WorkloadProfile] = {
    "predictor": WorkloadProfile(
        description="hot working set, frequent shallow mispredictions",
        working_set_lines=256,
        hot_lines=32,
        hot_fraction=0.7,
        ops_per_epoch=24,
        store_fraction=0.35,
        mispredict_rate=0.25,
    ),
    "hotset": WorkloadProfile(
        description="store-heavy blocked computation, rare mispredictions",
        working_set_lines=96,
        hot_lines=16,
        hot_fraction=0.8,
        ops_per_epoch=48,
        store_fraction=0.6,
        mispredict_rate=0.06,
    ),
    "stream": WorkloadProfile(
        description="streaming pass over a cache-exceeding working set",
        working_set_lines=1024,
        hot_lines=8,
        hot_fraction=0.1,
        ops_per_epoch=32,
        store_fraction=0.25,
        mispredict_rate=0.12,
        sequential=True,
    ),
}


def build_checkpoint_workload(
    app: str, num_epochs: int = 48, seed: int = 42
) -> List[CheckpointEpoch]:
    """Generate an epoch stream for one workload profile.

    Deterministic in ``(app, num_epochs, seed)``; no state leaks between
    calls.  ``num_epochs`` must be at least 1.
    """
    profile = CHECKPOINT_WORKLOADS.get(app)
    if profile is None:
        raise ConfigurationError(
            f"unknown checkpoint workload {app!r} "
            f"(known: {', '.join(sorted(CHECKPOINT_WORKLOADS))})"
        )
    if num_epochs < 1:
        raise ConfigurationError(f"num_epochs must be at least 1, got {num_epochs}")
    rng = random.Random(f"{app}:{seed}")
    cursor = 0
    epochs: List[CheckpointEpoch] = []
    for _ in range(num_epochs):
        ops: List[CheckpointOp] = []
        for _ in range(profile.ops_per_epoch):
            if profile.sequential:
                line = cursor % profile.working_set_lines
                cursor += 1
            elif rng.random() < profile.hot_fraction:
                line = rng.randrange(profile.hot_lines)
            else:
                line = rng.randrange(profile.working_set_lines)
            offset = rng.randrange(16)
            byte_address = ((line << 4) | offset) << 2
            if rng.random() < profile.store_fraction:
                ops.append(("store", byte_address, rng.getrandbits(31)))
            else:
                ops.append(("load", byte_address, 0))
        mispredicted = rng.random() < profile.mispredict_rate
        epochs.append(CheckpointEpoch(tuple(ops), mispredicted))
    return epochs
