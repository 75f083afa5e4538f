"""Fixed schemes on a phase-alternating workload (Figures 11 and 12).

A SPECjbb-like trace whose phases alternate between

* **quiet** — every thread read-modify-writes its own scattered scratch
  records: no cross-thread conflicts, every scheme is equally fast; and
* **hot** — all threads read-modify-write two shared counters with real
  think time between the load and the store and a long tail after it
  (the Figure 12 patterns): Eager's requester-wins resolution ping-pongs
  and repeatedly discards the tails, while lazy commit (Lazy, Bulk)
  resolves each counter update with one bounded squash.

Each run is scored on its simulated cycles and on its squashed cycles:
the discarded speculative work, reconstructed from the run's
``txn.begin`` / ``squash`` trace events.  Everything is
simulation-deterministic, so the ratios hold on any machine.
"""

import random
from typing import Dict, List

import pytest

from repro.obs import Observability
from repro.obs.tracer import EventTracer
from repro.sim.trace import ThreadTrace, compute, load, store, tx_begin, tx_end
from repro.tm.bulk import BulkScheme
from repro.tm.eager import EagerScheme
from repro.tm.lazy import LazyScheme
from repro.tm.params import TmParams
from repro.tm.system import TmSystem
from repro.workloads.kernels.common import WORD_MASK, AddressSpace

SCHEMES = {"Eager": EagerScheme, "Lazy": LazyScheme, "Bulk": BulkScheme}

NUM_THREADS = 4
PHASES = 4
QUIET_TXNS = 6
HOT_TXNS = 8
#: Every thread runs two quiet and two hot phases.
TOTAL_TXNS = NUM_THREADS * (PHASES // 2) * (QUIET_TXNS + HOT_TXNS)

#: Figure 11's "Lazy ≈ Bulk": Bulk's cycles stay within 5% of Lazy's.
MAX_BULK_VS_LAZY_CYCLES = 1.05
#: Figure 12's Eager pathology: Bulk discards at most 0.8x Eager's work.
MAX_BULK_VS_EAGER_SQUASHED = 0.80


def build_phased_traces(seed: int = 11) -> List[ThreadTrace]:
    """The phase-alternating workload (quiet, hot, quiet, hot)."""
    rng = random.Random(seed)
    space = AddressSpace(rng)
    space.record_array("counters", 2, 16)
    space.record_array("scratch", NUM_THREADS, 256)
    hot_words = [space.addr("counters", i * 16) for i in range(2)]
    traces = []
    for tid in range(NUM_THREADS):
        events: List = []
        private = space.addr("scratch", tid * 256)
        val = tid + 1
        for phase in range(PHASES):
            hot = phase % 2 == 1
            for txn in range(HOT_TXNS if hot else QUIET_TXNS):
                events.append(tx_begin())
                if hot:
                    # ld counter; <think>; st counter; <long tail> — the
                    # eager requester-wins pathology of Figure 12.
                    word = hot_words[txn % len(hot_words)]
                    events.append(load(word))
                    events.append(compute(120))
                    val = (val * 1103515245 + 12345) & WORD_MASK
                    events.append(store(word, val))
                    events.append(compute(200))
                else:
                    for i in range(6):
                        addr = private + ((txn * 6 + i) % 64) * 4
                        events.append(load(addr))
                        val = (val + addr) & WORD_MASK
                        events.append(store(addr, val))
                    events.append(compute(30))
                events.append(tx_end())
        traces.append(ThreadTrace(tid, events))
    return traces


def squashed_cycles(events: List[Dict]) -> int:
    """Discarded speculative work, from ``txn.begin``/``squash`` events.

    A squash throws away everything the victim computed since its
    current attempt began — the later of its transaction begin and its
    previous squash (the replay restarts immediately at the squash
    clock, and replays do not re-emit ``txn.begin``).
    """
    attempt_start: Dict[int, int] = {}
    wasted = 0
    for event in events:
        kind = event["kind"]
        if kind == "txn.begin":
            attempt_start[event["proc"]] = event["clock"]
        elif kind == "squash":
            pid = event["victim"]
            clock = event["clock"]
            wasted += max(0, clock - attempt_start.get(pid, clock))
            attempt_start[pid] = clock
    return wasted


@pytest.fixture(scope="module")
def scored():
    """``{scheme: {"cycles", "commits", "squashed_cycles"}}``."""
    traces = build_phased_traces()
    rows = {}
    for name, scheme_cls in SCHEMES.items():
        events: List[Dict] = []
        obs = Observability(tracer=EventTracer(sink=events.append))
        stats = TmSystem(
            traces, scheme_cls(), TmParams(num_processors=NUM_THREADS),
            obs=obs,
        ).run().stats
        rows[name] = {
            "cycles": stats.cycles,
            "commits": stats.committed_transactions,
            "squashed_cycles": squashed_cycles(events),
        }
    return rows


def test_every_scheme_commits_every_transaction(scored):
    assert TOTAL_TXNS == 112
    for name, row in scored.items():
        assert row["commits"] == TOTAL_TXNS, name


def test_bulk_runs_as_fast_as_lazy(scored):
    bulk, lazy = scored["Bulk"]["cycles"], scored["Lazy"]["cycles"]
    assert bulk <= lazy * MAX_BULK_VS_LAZY_CYCLES
    assert lazy <= bulk * MAX_BULK_VS_LAZY_CYCLES


def test_bulk_avoids_the_eager_squash_pathology(scored):
    bulk = scored["Bulk"]["squashed_cycles"]
    eager = scored["Eager"]["squashed_cycles"]
    assert eager > 0
    assert bulk <= eager * MAX_BULK_VS_EAGER_SQUASHED
