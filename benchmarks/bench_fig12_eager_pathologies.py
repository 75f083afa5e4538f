"""Figure 12 — the two SPECjbb2000 code patterns that hurt Eager.

(a) Two threads read-modify-write the same location: under Eager with
    requester-wins resolution they squash each other forever (no forward
    progress) until the footnote-2 mitigation steps in; under Lazy the
    first committer simply wins.
(b) A transaction reads A and would commit first; another stores A later.
    Eager squashes the reader at the store; Lazy commits both without any
    squash.
"""

from repro.analysis.fig12 import run_all_cases


def test_fig12_eager_pathologies(benchmark):
    results, mitigated, lazy_a, eager_b, lazy_b = benchmark.pedantic(
        run_all_cases, rounds=1, iterations=1
    )
    print()
    print("Figure 12: Eager pathologies on SPECjbb2000-style patterns")
    for case, outcome in results.items():
        print(f"  {case:24s} {outcome}")

    assert results["12a-eager-unmitigated"] == "livelock detected"
    assert mitigated.stats.committed_transactions == 2
    assert lazy_a.stats.committed_transactions == 2
    assert eager_b.stats.squashes >= 1
    assert lazy_b.stats.squashes == 0
