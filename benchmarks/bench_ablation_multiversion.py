"""Ablation — multi-version BDM contexts (SMT cores).

The paper motivates multiple R/W signature pairs per BDM (Figure 7) with
preempted transactions and TLS load imbalance.  This ablation runs the
TM workloads on 8 hardware threads arranged either as 8 single-threaded
cores (the paper's configuration) or as 4 SMT cores of 2 threads sharing
a cache and a BDM, and reports the costs the multi-version machinery
introduces: Set Restriction conflicts between co-resident contexts and
the cycles lost to them.
"""

from dataclasses import replace

from repro.analysis.report import render_table
from repro.tm.bulk import BulkScheme
from repro.tm.params import TM_DEFAULTS
from repro.tm.system import TmSystem
from repro.workloads.kernels import build_tm_workload

SEED = 42
TM_TXNS = 10
APPS = ["cb", "mc", "sjbb2k"]


def run(app: str, threads_per_core: int):
    params = replace(TM_DEFAULTS, threads_per_core=threads_per_core)
    traces = build_tm_workload(
        app, num_threads=8, txns_per_thread=max(4, TM_TXNS // 2), seed=SEED
    )
    return TmSystem(traces, BulkScheme(), params).run()


def test_ablation_smt_cores(benchmark):
    def sweep():
        rows = []
        for app in APPS:
            single = run(app, threads_per_core=1)
            smt = run(app, threads_per_core=2)
            assert (
                single.stats.committed_transactions
                == smt.stats.committed_transactions
            )
            rows.append(
                [
                    app,
                    single.cycles,
                    smt.cycles,
                    smt.cycles / single.cycles,
                    smt.stats.set_restriction_conflicts,
                    smt.stats.squashes - single.stats.squashes,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["App", "8x1 cycles", "4x2 cycles", "ratio", "SetResCnf",
             "ExtraSq"],
            rows,
            title="Ablation: single-threaded cores vs SMT cores (Bulk)",
        )
    )
    for row in rows:
        # Sharing caches/BDMs must never break execution; slowdowns come
        # from genuine set conflicts and cache sharing.
        assert row[3] > 0
