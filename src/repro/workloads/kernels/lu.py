"""lu — Java Grande LU matrix factorisation (Table 4).

Gaussian elimination without pivoting over a fixed-point matrix whose
rows are banded across threads.  As in distributed LU implementations,
the freshly-normalised pivot row is *broadcast* through a small ring of
shared pivot buffers; each thread's matrix rows are touched only by
their owner.  The pipeline runs the broadcast two rounds ahead of the
consumers (the Java original separates the phases with barriers), so
pivot-buffer conflicts arise only when the pipeline slips — squashes and
load imbalance make that occasional, not constant, matching the modest
conflict rates the paper reports for lu.
"""

from __future__ import annotations

import random
from typing import List

from repro.sim.trace import ThreadTrace
from repro.workloads.kernels.common import (
    stagger_after_setup,
    WORD_MASK,
    AddressSpace,
    fix,
    make_builders,
)

#: Pivot broadcast ring depth.
PIVOT_BUFFERS = 4


def build(
    num_threads: int = 8,
    txns_per_thread: int = 24,
    seed: int = 2,
) -> List[ThreadTrace]:
    """Generate the LU traces.

    ``txns_per_thread`` scales the matrix once it passes the floor: the
    matrix has ``max(2 * num_threads, txns_per_thread, 32)`` rows, and
    each elimination step costs every thread roughly one transaction.
    So with 16 or fewer threads, every ``txns_per_thread`` up to 32
    builds the same 32-row traces.
    """
    rng = random.Random(seed)
    n = max(num_threads * 2, txns_per_thread, 32)
    space = AddressSpace(rng)
    # Rows are separately allocated (a Java 2-D array is an array of row
    # objects); the pivot ring is a handful of shared buffer objects.
    space.record_array("matrix", n, n)
    space.record_array("pivot_buf", PIVOT_BUFFERS, n)

    builders = make_builders(num_threads, space)

    setup = builders[0]
    for i in range(n):
        for j in range(n):
            setup.st("matrix", i * n + j, fix(1.0 + ((i * 31 + j * 17) % 97) / 9.7))
    setup.work(100)
    stagger_after_setup(builders)

    def row_owner(row: int) -> int:
        return row % num_threads

    def emit_normalize(k: int) -> None:
        """Owner normalises row k and broadcasts it into the ring."""
        owner = builders[row_owner(k)]
        slot = (k % PIVOT_BUFFERS) * n
        owner.begin()
        pivot = owner.ld("matrix", k * n + k) or 1
        for j in range(k + 1, n):
            value = owner.ld("matrix", k * n + j)
            scaled = (value * 256 // pivot) & WORD_MASK
            owner.st("matrix", k * n + j, scaled)
            owner.st("pivot_buf", slot + j, scaled)
        owner.work(20)
        owner.end()

    def emit_updates(k: int) -> None:
        """Each thread eliminates column k from its rows, reading the
        pivot row from the broadcast ring."""
        slot = (k % PIVOT_BUFFERS) * n
        for tid, builder in enumerate(builders):
            rows = [i for i in range(k + 1, n) if row_owner(i) == tid]
            if not rows:
                continue
            builder.begin()
            pivot_row = [
                builder.ld("pivot_buf", slot + j) for j in range(k + 1, n)
            ]
            for i in rows:
                factor = builder.ld("matrix", i * n + k) or 1
                for j in range(k + 1, n):
                    value = builder.ld("matrix", i * n + j)
                    update = (
                        value - (factor * pivot_row[j - k - 1] >> 8)
                    ) & WORD_MASK
                    builder.st("matrix", i * n + j, update)
            builder.work(30)
            builder.end()
            builder.work(10 + rng.randrange(10))

    # Two-round software pipeline: broadcast runs ahead of consumption.
    emit_normalize(0)
    if n > 2:
        emit_normalize(1)
    for k in range(n - 1):
        if k + 2 < n - 1:
            emit_normalize(k + 2)
        emit_updates(k)

    return [builder.build() for builder in builders]
