"""Ablation — signature configuration as a system-level design knob.

Figure 15 measures configuration accuracy in isolation; this ablation
closes the loop the paper argues for ("signature configuration is a key
design parameter") by running the *full systems* under different
signature registers and showing how aliasing turns into squashes, false
invalidations, and cycles.

Only configurations whose first chunk covers the cache-index bits are
eligible (the delta-exactness requirement of Section 4.3): the TM L1's
128 sets need a >= 7-bit first chunk, and the TLS word-grain L1's 64
sets need >= 10 bits.  The ablation also reports commit-packet bytes
with and without RLE — the Section 6.1 compression ablation.
"""

from dataclasses import replace

from repro.analysis.report import render_table
from repro.core.signature_config import table8_config
from repro.mem.address import Granularity
from repro.tls.bulk import TlsBulkScheme
from repro.tls.params import TLS_DEFAULTS
from repro.tls.system import TlsSystem, simulate_sequential
from repro.tm.bulk import BulkScheme
from repro.tm.params import TM_DEFAULTS
from repro.tm.system import TmSystem
from repro.workloads.kernels import build_tm_workload
from repro.workloads.tls_spec import build_tls_workload

SEED = 42
#: TM-eligible Table 8 configurations (first chunk >= 7 bits).
TM_CONFIGS = ["S1", "S4", "S10", "S14", "S19", "S23"]
#: TLS-eligible Table 8 configurations (first chunk >= 10 bits).
TLS_CONFIGS = ["S12", "S14", "S17", "S22"]


def test_ablation_tm_signature_size(benchmark):
    def sweep():
        rows = []
        for name in TM_CONFIGS:
            config = table8_config(
                name, Granularity.LINE, use_paper_permutation=False
            )
            params = replace(TM_DEFAULTS, signature_config=config)
            traces = build_tm_workload(
                "sjbb2k", num_threads=8, txns_per_thread=8, seed=SEED
            )
            result = TmSystem(traces, BulkScheme(), params).run()
            stats = result.stats
            rows.append(
                [
                    name,
                    config.size_bits,
                    result.cycles,
                    stats.squashes,
                    stats.false_positive_squashes,
                    stats.false_commit_invalidations,
                    stats.bandwidth.commit_bytes,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["Config", "Bits", "Cycles", "Squashes", "FalseSq",
             "FalseInv", "CommitB"],
            rows,
            title="Ablation: sjbb2k (TM, Bulk) vs signature size",
        )
    )
    by_name = {row[0]: row for row in rows}
    # The big register never aliases more than the small one.
    assert by_name["S23"][4] <= by_name["S1"][4]
    # Everything still commits correctly at every size (the runs would
    # have raised otherwise) and no configuration changes commit counts.


def test_ablation_tls_signature_size(benchmark):
    def sweep():
        rows = []
        tasks = build_tls_workload("crafty", num_tasks=80, seed=SEED)
        sequential = simulate_sequential(tasks, TLS_DEFAULTS)
        for name in TLS_CONFIGS:
            config = table8_config(
                name, Granularity.WORD, use_paper_permutation=False
            )
            params = replace(TLS_DEFAULTS, signature_config=config)
            result = TlsSystem(
                build_tls_workload("crafty", num_tasks=80, seed=SEED),
                TlsBulkScheme(True),
                params,
            ).run()
            stats = result.stats
            rows.append(
                [
                    name,
                    config.size_bits,
                    sequential / result.cycles,
                    stats.squashes,
                    stats.false_positive_squashes,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["Config", "Bits", "Speedup", "Squashes", "FalseSq"],
            rows,
            title="Ablation: crafty (TLS, Bulk) vs signature size",
        )
    )
    by_name = {row[0]: row for row in rows}
    assert by_name["S22"][4] <= by_name["S12"][4]
