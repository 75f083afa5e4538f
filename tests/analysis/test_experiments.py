"""Tests for the end-to-end experiment drivers."""

import pytest

from repro.analysis.experiments import run_tls_comparison, run_tm_comparison
from repro.obs import Observability
from repro.runner.serialize import canonical_json, comparison_to_dict
from repro.tm.system import TmSystem
from repro.workloads.kernels import TM_KERNELS

#: The TM kernels whose transactions nest (the only ones where
#: Bulk-Partial can differ from Bulk).
NESTING_KERNELS = {"sjbb2k"}


class TestTmComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_tm_comparison(
            "mc", txns_per_thread=4, seed=3, include_partial=True
        )

    def test_all_schemes_present(self, comparison):
        assert set(comparison.cycles) == {
            "Eager", "Lazy", "Bulk", "Bulk-Partial"
        }

    def test_speedup_over_eager_is_one_for_eager(self, comparison):
        assert comparison.speedup_over_eager("Eager") == 1.0

    def test_bandwidth_normalisation(self, comparison):
        breakdown = comparison.bandwidth_vs_eager("Eager")
        assert breakdown["Total"] == pytest.approx(100.0)

    def test_commit_bandwidth_bulk_below_lazy(self, comparison):
        # Figure 14: signatures compress commit packets well below
        # enumerated addresses.
        ratio = comparison.commit_bandwidth_vs_lazy()
        assert 0 < ratio < 100

    def test_same_commit_counts_across_schemes(self, comparison):
        counts = {
            comparison.stats[s].committed_transactions
            for s in ("Eager", "Lazy", "Bulk")
        }
        assert len(counts) == 1


class TestTlsComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return run_tls_comparison("gzip", num_tasks=50, seed=3)

    def test_all_schemes_present(self, comparison):
        assert set(comparison.cycles) == {
            "Eager", "Lazy", "Bulk", "BulkNoOverlap"
        }

    def test_all_tasks_commit(self, comparison):
        for stats in comparison.stats.values():
            assert stats.committed_tasks == 50

    def test_speedups_positive(self, comparison):
        for scheme in comparison.cycles:
            assert comparison.speedup(scheme) > 0

    def test_no_overlap_is_slowest_bulk(self, comparison):
        assert comparison.speedup("BulkNoOverlap") <= comparison.speedup("Bulk")


class TestPerSchemeAggregation:
    """Regression guard against last-scheme-wins merging: every scheme's
    cycles and stats must be its own run's, never another scheme's entry
    overwritten or aliased."""

    @pytest.fixture(scope="class")
    def comparison(self):
        return run_tm_comparison(
            "lu", txns_per_thread=4, seed=3, include_partial=True
        )

    def test_one_entry_per_scheme(self, comparison):
        expected = {"Eager", "Lazy", "Bulk", "Bulk-Partial"}
        assert set(comparison.cycles) == expected
        assert set(comparison.stats) == expected

    def test_stats_objects_are_distinct(self, comparison):
        stats = list(comparison.stats.values())
        for i, left in enumerate(stats):
            for right in stats[i + 1:]:
                assert left is not right
                assert left.bandwidth is not right.bandwidth

    def test_schemes_differ_observably(self, comparison):
        # If a later scheme's results overwrote an earlier one's, these
        # per-scheme signals would collapse to the same values.  Eager
        # resolves at access time (zero commit bytes); Lazy enumerates
        # addresses at commit; Bulk sends compressed signatures.
        assert comparison.stats["Eager"].bandwidth.commit_bytes == 0
        assert comparison.stats["Lazy"].bandwidth.commit_bytes > 0
        assert comparison.stats["Bulk"].bandwidth.commit_bytes > 0
        assert (
            comparison.stats["Bulk"].bandwidth.commit_bytes
            < comparison.stats["Lazy"].bandwidth.commit_bytes
        )

    def test_partial_run_does_not_clobber_bulk(self, comparison):
        # Bulk-Partial executes a BulkScheme relabelled "Bulk-Partial";
        # its entries must land beside plain Bulk's, not on top of them.
        assert comparison.stats["Bulk"] is not comparison.stats["Bulk-Partial"]
        assert comparison.cycles["Bulk"] > 0
        assert comparison.cycles["Bulk-Partial"] > 0


class TestBulkPartialReuse:
    """An unobserved comparison simulates Bulk-Partial only where a
    transaction nests; elsewhere it copies Bulk's run.  An observed one
    runs every scheme.  Both must give the same bytes."""

    @pytest.mark.parametrize("txns", [1, 3])
    @pytest.mark.parametrize("app", sorted(TM_KERNELS))
    def test_unobserved_reuse_matches_observed_runs(
        self, monkeypatch, app, txns
    ):
        runs = []
        run = TmSystem.run

        def counted(system):
            runs.append(system.scheme.name)
            return run(system)

        monkeypatch.setattr(TmSystem, "run", counted)

        def encoded(obs):
            runs.clear()
            comparison = run_tm_comparison(
                app, txns_per_thread=txns, include_partial=True, obs=obs
            )
            return canonical_json(comparison_to_dict(comparison)), len(runs)

        plain, plain_runs = encoded(None)
        observed, observed_runs = encoded(Observability())
        assert plain == observed
        assert plain_runs == (4 if app in NESTING_KERNELS else 3)
        assert observed_runs == 4
