"""Ablation — scalability with processor count (extension study).

The paper fixes 4 processors for TLS and 8 for TM (Table 5).  This
ablation varies the counts: TLS tasks across 2-16 processors and TM
threads across 2-16, under Bulk.  Two effects the paper's design
predicts should be visible:

* TLS speedup saturates — in-order commit and the spawn chain bound the
  useful window regardless of processor count;
* commit serialisation on the bus grows with the committer count, but
  Bulk's single-packet commits keep the slot short.
"""

from dataclasses import replace

from repro.analysis.report import render_table
from repro.tls.bulk import TlsBulkScheme
from repro.tls.params import TLS_DEFAULTS
from repro.tls.system import TlsSystem, simulate_sequential
from repro.tm.bulk import BulkScheme
from repro.tm.params import TM_DEFAULTS
from repro.tm.system import TmSystem
from repro.workloads.kernels import build_tm_workload
from repro.workloads.tls_spec import build_tls_workload

SEED = 42
PROCESSOR_COUNTS = [2, 4, 8, 16]


def test_ablation_tls_processor_count(benchmark):
    def sweep():
        tasks = build_tls_workload("vortex", num_tasks=96, seed=SEED)
        sequential, _ = simulate_sequential(tasks, TLS_DEFAULTS)
        rows = []
        for processors in PROCESSOR_COUNTS:
            params = replace(TLS_DEFAULTS, num_processors=processors)
            result = TlsSystem(
                build_tls_workload("vortex", num_tasks=96, seed=SEED),
                TlsBulkScheme(True),
                params,
            ).run()
            rows.append(
                [
                    processors,
                    sequential / result.cycles,
                    result.stats.squashes,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["CPUs", "Speedup", "Squashes"],
            rows,
            title="Ablation: vortex (TLS, Bulk) vs processor count",
        )
    )
    speedups = [row[1] for row in rows]
    # More processors never hurt dramatically, and gains saturate: the
    # 16-CPU run gains less over 8 than 4 gained over 2.
    assert speedups[1] >= speedups[0] * 0.95
    assert (speedups[3] - speedups[2]) <= (speedups[1] - speedups[0]) + 0.25


def test_ablation_tm_thread_count(benchmark):
    def sweep():
        rows = []
        for threads in PROCESSOR_COUNTS:
            params = replace(TM_DEFAULTS, num_processors=threads)
            traces = build_tm_workload(
                "sjbb2k", num_threads=threads, txns_per_thread=8, seed=SEED
            )
            result = TmSystem(traces, BulkScheme(), params).run()
            stats = result.stats
            rows.append(
                [
                    threads,
                    result.cycles,
                    stats.committed_transactions,
                    stats.squashes,
                    stats.bandwidth.commit_bytes
                    / max(1, stats.committed_transactions),
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["Threads", "Cycles", "Commits", "Squashes", "CommitB/txn"],
            rows,
            title="Ablation: sjbb2k (TM, Bulk) vs thread count",
        )
    )
    # Commit packets stay the same small size regardless of thread count
    # (one signature per transaction).
    packet_sizes = [row[4] for row in rows]
    assert max(packet_sizes) < 2.5 * min(packet_sizes)
    # Contention grows with threads.
    assert rows[-1][3] >= rows[0][3]
