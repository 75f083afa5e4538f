"""Ablation — arbitration latency as an interconnect design knob.

The paper evaluates Bulk on an idealised synchronous bus; this ablation
re-runs a TM workload on the timed interconnect model while the
request-to-grant latency sweeps upward, showing how commit serialisation
("it first obtains permission to commit", Section 4.1) turns arbitration
delay into queueing: wait cycles accumulate super-linearly while the
commit count — the correctness contract — never moves.  A second sweep
compares the three arbitration policies at a fixed latency.
"""

from repro.analysis.report import render_table
from repro.interconnect import POLICIES
from repro.spec import RunConfig
from repro.tm.bulk import BulkScheme
from repro.tm.system import TmSystem
from repro.workloads.kernels import build_tm_workload

SEED = 42
LATENCIES = [0, 2, 4, 8, 16]
POLICY_LATENCY = 8


def _run(bus: str):
    traces = build_tm_workload(
        "sjbb2k", num_threads=8, txns_per_thread=8, seed=SEED
    )
    return TmSystem(traces, BulkScheme(), config=RunConfig(bus=bus)).run()


def test_ablation_bus_latency(benchmark):
    def sweep():
        rows = []
        for latency in LATENCIES:
            result = _run(f"timed:latency={latency}")
            stats = result.stats
            rows.append(
                [
                    latency,
                    result.cycles,
                    stats.committed_transactions,
                    stats.bus_wait_cycles,
                    stats.bus_avg_wait,
                    stats.bus_max_queue_depth,
                    stats.bus_utilisation_percent,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["Latency", "Cycles", "Commits", "WaitCyc", "AvgWait", "MaxQ",
             "Util%"],
            rows,
            title="Ablation: sjbb2k (TM, Bulk) vs bus arbitration latency",
        )
    )
    by_latency = {row[0]: row for row in rows}
    # Latency only re-times work: the commit count is invariant.
    assert len({row[2] for row in rows}) == 1
    # Queueing delay grows with the configured latency.
    assert by_latency[16][3] > by_latency[0][3]


def test_ablation_bus_policy(benchmark):
    def sweep():
        rows = []
        for policy in sorted(POLICIES):
            result = _run(f"timed:latency={POLICY_LATENCY},policy={policy}")
            stats = result.stats
            worst_port_wait = max(
                stats.bus_wait_by_port.values(), default=0
            )
            rows.append(
                [
                    policy,
                    result.cycles,
                    stats.committed_transactions,
                    stats.bus_wait_cycles,
                    worst_port_wait,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["Policy", "Cycles", "Commits", "WaitCyc", "WorstPort"],
            rows,
            title=(
                "Ablation: sjbb2k (TM, Bulk) arbitration policies at "
                f"latency {POLICY_LATENCY}"
            ),
        )
    )
    # Policies re-order who waits, never whether work completes.
    assert len({row[2] for row in rows}) == 1
