#!/usr/bin/env python3
"""TLS-parallelising a loop with cross-iteration dependences.

A sequential histogram-update loop is carved into tasks (one per block
of iterations).  Most iterations are independent, but occasionally an
iteration reads a cell the previous block just wrote — a genuine
cross-task dependence that TLS must detect and recover from.

The example runs the task set under all four configurations and prints
the Figure 10-style comparison: speedup over sequential execution,
squashes, and the Partial Overlap effect.

Run:  python examples/tls_loop.py
"""

import random

from repro.sim.trace import compute, load, store
from repro.tls.bulk import TlsBulkScheme
from repro.tls.eager import TlsEagerScheme
from repro.tls.lazy import TlsLazyScheme
from repro.tls.params import TLS_DEFAULTS
from repro.tls.system import TlsSystem, simulate_sequential
from repro.tls.task import TlsTask

HISTOGRAM_BASE = 0x40_0000
DATA_BASE = 0x80_0000
BINS = 256


def build_tasks(num_tasks=64, iterations_per_task=24, seed=3):
    rng = random.Random(seed)
    tasks = []
    histogram = [0] * BINS
    for task_id in range(num_tasks):
        events = []
        # The loop index lives in a register; the spawn happens right at
        # the top of the block (do-across parallelisation).
        events.append(compute(5))
        spawn = len(events)
        for i in range(iterations_per_task):
            sample = rng.randrange(BINS)
            data_addr = DATA_BASE + (task_id * iterations_per_task + i) * 4
            events.append(load(data_addr))
            # Each block mostly updates its own bin range; occasionally
            # an iteration lands in the *previous* block's range — a
            # genuine cross-task dependence TLS must catch.
            if rng.random() < 0.02 and task_id > 0:
                bin_index = ((task_id - 1) * 16 + sample % 16) % BINS
            else:
                bin_index = (task_id * 16 + sample % 16) % BINS
            address = HISTOGRAM_BASE + bin_index * 4
            histogram[bin_index] += 1
            events.append(load(address))
            events.append(store(address, histogram[bin_index]))
            if i % 6 == 5:
                events.append(compute(30))
        tasks.append(TlsTask(task_id, events, spawn_cursor=spawn))
    return tasks


def main() -> None:
    tasks = build_tasks()
    sequential, sequential_memory = simulate_sequential(tasks, TLS_DEFAULTS)
    print(f"sequential execution: {sequential} cycles\n")
    print(f"{'scheme':14s} {'cycles':>8s} {'speedup':>8s} "
          f"{'squashes':>9s} {'falsePos':>9s}")
    for scheme in (
        TlsEagerScheme(),
        TlsLazyScheme(),
        TlsBulkScheme(partial_overlap=True),
        TlsBulkScheme(partial_overlap=False),
    ):
        result = TlsSystem(build_tasks(), scheme).run()
        stats = result.stats
        print(
            f"{result.scheme:14s} {result.cycles:8d} "
            f"{sequential / result.cycles:8.2f} {stats.squashes:9d} "
            f"{stats.false_positive_squashes:9d}"
        )
        assert result.memory == sequential_memory
    print("\nfinal histograms equal the sequential run's under every "
          "scheme — sequential semantics preserved.")


if __name__ == "__main__":
    main()
