"""Simulation substrate: event records, deterministic RNG, scheduling."""

from repro.sim.trace import (
    EventKind,
    MemEvent,
    ThreadTrace,
    compute,
    load,
    store,
    tx_begin,
    tx_end,
)
from repro.sim.rng import SubstreamRng
from repro.sim.engine import MinClockScheduler

__all__ = [
    "EventKind",
    "MemEvent",
    "ThreadTrace",
    "compute",
    "load",
    "store",
    "tx_begin",
    "tx_end",
    "SubstreamRng",
    "MinClockScheduler",
]
