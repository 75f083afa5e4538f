"""Adaptive scheme selection on a phase-alternating workload.

The hot-swap seam and the policy layer (``repro/spec/policy.py``) claim
that a run which *starts* on an exact eager scheme and switches to Bulk
when contention spikes should track the best fixed scheme — without
knowing ahead of time which scheme that is.  This benchmark builds the
workload that makes the claim falsifiable: a SPECjbb-like trace whose
phases alternate between

* **quiet** — every thread read-modify-writes its own scattered scratch
  records: no cross-thread conflicts, every scheme is equally fast; and
* **hot** — all threads read-modify-write two shared counters with real
  think time between the load and the store and a long tail after it
  (the Figure 12 patterns): Eager's requester-wins resolution ping-pongs
  and repeatedly discards the tails, while lazy commit (Lazy, Bulk)
  resolves each counter update with one bounded squash.

Each run is scored on two axes:

``cycles``
    End-to-end simulated time (max processor completion).
``squashed_cycles``
    Cycles of discarded speculative work, reconstructed from the run's
    ``txn.begin`` / ``squash`` trace events: each squash wastes the time
    between the victim's current attempt start and the squash clock.

The pinned acceptance bars (asserted here and recorded in
``BENCH_core.json`` by ``benchmarks/bench_to_json.py``):

* the adaptive run finishes within **5%** of the best fixed scheme's
  cycles (it does not know the phase schedule; the fixed runs
  effectively do), and
* it beats the worst fixed scheme by **at least 20%** on squashed
  cycles — switching away from the pathological scheme must recover
  most of the work that scheme would have burned.

Everything is simulation-deterministic (fixed seed, no wall-clock), so
the ratios are stable across machines and Python versions.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.obs import Observability
from repro.obs.tracer import EventTracer
from repro.sim.trace import ThreadTrace, compute, load, store, tx_begin, tx_end
from repro.spec import RunConfig
from repro.tm.bulk import BulkScheme
from repro.tm.eager import EagerScheme
from repro.tm.lazy import LazyScheme
from repro.tm.params import TmParams
from repro.tm.system import TmSystem
from repro.workloads.kernels.common import WORD_MASK, AddressSpace

#: The headline adaptive configuration: swap to Bulk when the windowed
#: squash rate spikes, and stay there (``low=Bulk`` makes the quiet
#: windows target Bulk too — a one-way ratchet, so the run pays the
#: signature→exact conversion squash at most zero times).
RATCHET = "threshold:squash_rate>0.2,window=8,low=Bulk"
#: The damped two-threshold policy; swaps back in quiet phases but the
#: dwell keeps it from thrashing at the phase boundaries.
HYSTERESIS = "hysteresis:high=0.2,low=0.05,window=8,dwell=1"
#: The naive single-threshold policy, kept in the table as the contrast:
#: it returns to Eager every quiet phase and re-pays the pathology at
#: the start of every hot one.
PLAIN = "threshold:squash_rate>0.2,window=8"

FIXED_SCHEMES = (("Eager", EagerScheme), ("Lazy", LazyScheme), ("Bulk", BulkScheme))

#: Acceptance bars (see the module docstring).
MAX_VS_BEST_FIXED = 1.05
MAX_VS_WORST_FIXED_SQUASHED = 0.80


def build_phased_traces(
    num_threads: int = 4,
    phases: int = 4,
    quiet_txns: int = 6,
    hot_txns: int = 8,
    seed: int = 11,
) -> List[ThreadTrace]:
    """The phase-alternating workload (quiet, hot, quiet, hot, ...)."""
    rng = random.Random(seed)
    space = AddressSpace(rng)
    space.record_array("counters", 2, 16)
    space.record_array("scratch", num_threads, 256)
    hot_words = [space.addr("counters", i * 16) for i in range(2)]
    traces = []
    for tid in range(num_threads):
        events: List = []
        private = space.addr("scratch", tid * 256)
        val = tid + 1
        for phase in range(phases):
            hot = phase % 2 == 1
            for txn in range(hot_txns if hot else quiet_txns):
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
        kind = event.get("kind")
        if kind == "txn.begin":
            attempt_start[event["proc"]] = event["clock"]
        elif kind == "squash":
            pid = event["victim"]
            clock = event["clock"]
            wasted += max(0, clock - attempt_start.get(pid, clock))
            attempt_start[pid] = clock
    return wasted


def run_scored(scheme, policy: Optional[str] = None) -> Dict[str, int]:
    """One system run on the phased workload, scored on both axes."""
    events: List[Dict] = []
    obs = Observability()
    obs.tracer = EventTracer(sink=events.append)
    system = TmSystem(
        build_phased_traces(),
        scheme,
        TmParams(num_processors=4),
        obs=obs,
        config=RunConfig(policy=policy),
    )
    stats = system.run().stats
    return {
        "cycles": stats.cycles,
        "commits": stats.commits,
        "squashes": stats.squashes,
        "squashed_cycles": squashed_cycles(events),
        "swaps": sum(1 for e in events if e.get("kind") == "scheme.swap"),
    }


def run_adaptive_study() -> Dict:
    """Every fixed scheme and every policy on the phased workload,
    plus the two pinned acceptance ratios (shared with bench_to_json).
    """
    fixed = {name: run_scored(factory()) for name, factory in FIXED_SCHEMES}
    adaptive = {
        spec: run_scored(EagerScheme(), policy=spec)
        for spec in (RATCHET, HYSTERESIS, PLAIN)
    }
    best = min(fixed, key=lambda name: fixed[name]["cycles"])
    worst = max(fixed, key=lambda name: fixed[name]["squashed_cycles"])
    headline = adaptive[RATCHET]
    return {
        "fixed": fixed,
        "adaptive": adaptive,
        "best_fixed": best,
        "worst_fixed": worst,
        "adaptive_vs_best_fixed": round(
            headline["cycles"] / fixed[best]["cycles"], 4
        ),
        "adaptive_vs_worst_fixed_squashed": round(
            headline["squashed_cycles"] / fixed[worst]["squashed_cycles"], 4
        ),
    }


def _print_table(study: Dict) -> None:
    print()
    print("Adaptive scheme selection on the phase-alternating workload")
    header = f"  {'run':44s} {'cycles':>8s} {'squashes':>9s} {'sq-cycles':>10s} {'swaps':>6s}"
    print(header)
    for name, row in study["fixed"].items():
        print(
            f"  fixed   {name:36s} {row['cycles']:8d} {row['squashes']:9d} "
            f"{row['squashed_cycles']:10d} {row['swaps']:6d}"
        )
    for spec, row in study["adaptive"].items():
        print(
            f"  adaptive {spec:35s} {row['cycles']:8d} {row['squashes']:9d} "
            f"{row['squashed_cycles']:10d} {row['swaps']:6d}"
        )
    print(
        f"  adaptive vs best fixed ({study['best_fixed']}):   "
        f"{study['adaptive_vs_best_fixed']:.4f}x cycles "
        f"(bar <= {MAX_VS_BEST_FIXED})"
    )
    print(
        f"  adaptive vs worst fixed ({study['worst_fixed']}): "
        f"{study['adaptive_vs_worst_fixed_squashed']:.4f}x squashed cycles "
        f"(bar <= {MAX_VS_WORST_FIXED_SQUASHED})"
    )


def test_adaptive_policy_tracks_best_fixed(benchmark):
    study = benchmark.pedantic(run_adaptive_study, rounds=1, iterations=1)
    _print_table(study)

    fixed = study["fixed"]
    # The workload does what it was built to do: a real spread between
    # the fixed schemes, committed work identical everywhere.
    commits = {row["commits"] for row in fixed.values()}
    commits |= {row["commits"] for row in study["adaptive"].values()}
    assert len(commits) == 1
    assert fixed["Eager"]["squashed_cycles"] > fixed["Bulk"]["squashed_cycles"]

    # The pinned acceptance bars, on the ratchet and on hysteresis.
    assert study["adaptive_vs_best_fixed"] <= MAX_VS_BEST_FIXED
    assert (
        study["adaptive_vs_worst_fixed_squashed"] <= MAX_VS_WORST_FIXED_SQUASHED
    )
    hysteresis = study["adaptive"][HYSTERESIS]
    best = fixed[study["best_fixed"]]
    worst = fixed[study["worst_fixed"]]
    assert hysteresis["cycles"] <= best["cycles"] * MAX_VS_BEST_FIXED
    assert hysteresis["squashed_cycles"] <= (
        worst["squashed_cycles"] * MAX_VS_WORST_FIXED_SQUASHED
    )

    # The contrast rows behave as documented: the ratchet swaps exactly
    # once, the naive threshold thrashes and pays for it.
    assert study["adaptive"][RATCHET]["swaps"] == 1
    assert study["adaptive"][PLAIN]["swaps"] > hysteresis["swaps"]
    assert study["adaptive"][PLAIN]["cycles"] >= hysteresis["cycles"]
