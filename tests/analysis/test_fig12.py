"""The Figure 12 Eager pathologies (:mod:`repro.analysis.fig12`)."""

from repro.analysis.fig12 import run_all_cases


def test_figure_12_pathologies():
    results, mitigated, lazy_a, eager_b, lazy_b = run_all_cases()
    # (a) Unmitigated Eager livelocks; the footnote-2 mitigation and Lazy
    # both commit the two transactions.
    assert results["12a-eager-unmitigated"] == "livelock detected"
    assert mitigated.stats.committed_transactions == 2
    assert lazy_a.stats.committed_transactions == 2
    # (b) Eager squashes the reader at the store; Lazy never squashes.
    assert eager_b.stats.squashes >= 1
    assert lazy_b.stats.squashes == 0
