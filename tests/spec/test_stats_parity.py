"""Cross-substrate parity of the shared derived metrics.

``TmStats``, ``TlsStats``, and ``CheckpointStats`` keep their historical
field names but inherit every derived-metric body from ``SpecStats``.
These tests pin the contract on golden fixtures: identical underlying
quantities must yield identical derived metrics in all three substrates,
the hand-computed values must come out, and zero denominators must give
``0.0`` rather than raise.
"""

import pytest

from repro.checkpoint import CheckpointStats
from repro.spec import SpecStats
from repro.tls.stats import TlsStats
from repro.tm.stats import TmStats

# One golden scenario, expressed in each substrate's native fields:
# 8 committed units, 80 read / 40 written granules, 4 squashes (1 pure
# aliasing), 12 dependence granules, 6 invalidations (2 false), 3 safe
# writebacks.
GOLDEN_TM = TmStats(
    committed_transactions=8,
    read_set_granules=80,
    write_set_granules=40,
    squashes=4,
    false_positive_squashes=1,
    dependence_granules=12,
    commit_invalidations=6,
    false_commit_invalidations=2,
    safe_writebacks=3,
)
GOLDEN_TLS = TlsStats(
    committed_tasks=8,
    read_set_words=80,
    write_set_words=40,
    squashes=4,
    direct_squashes=4,
    false_positive_squashes=1,
    dependence_words=12,
    commit_invalidations=6,
    false_commit_invalidations=2,
    safe_writebacks=3,
)
GOLDEN_CHECKPOINT = CheckpointStats(
    committed_checkpoints=8,
    read_set_words=80,
    write_set_words=40,
    squashes=4,
    false_positive_squashes=1,
    commit_invalidations=6,
    false_commit_invalidations=2,
    safe_writebacks=3,
)

GOLDEN = [GOLDEN_TM, GOLDEN_TLS, GOLDEN_CHECKPOINT]
DERIVED = [
    ("avg_read_set", 10.0),
    ("avg_write_set", 5.0),
    ("false_squash_percent", 25.0),
    ("false_invalidations_per_commit", 0.25),
    ("safe_writebacks_per_commit", 0.375),
]


class TestGoldenParity:
    @pytest.mark.parametrize("metric,expected", DERIVED)
    def test_every_substrate_computes_the_golden_value(
        self, metric, expected
    ):
        for stats in GOLDEN:
            assert getattr(stats, metric) == expected, type(stats).__name__

    def test_avg_dependence_set_where_defined(self):
        # Checkpoint rollbacks carry no dependence sets (dependence_total
        # is 0 by definition); TM and TLS agree on the golden value.
        assert GOLDEN_TM.avg_dependence_set == 3.0
        assert GOLDEN_TLS.avg_dependence_set == 3.0
        assert GOLDEN_CHECKPOINT.avg_dependence_set == 0.0

    def test_tls_divides_by_direct_squashes_only(self):
        cascaded = TlsStats(
            committed_tasks=8,
            squashes=10,          # 4 direct + 6 cascaded children
            direct_squashes=4,
            dependence_words=12,
            false_positive_squashes=1,
        )
        assert cascaded.avg_dependence_set == 3.0
        assert cascaded.false_squash_percent == 25.0

    def test_substrate_aliases_match_the_shared_body(self):
        assert GOLDEN_TM.safe_writebacks_per_txn == 0.375
        assert GOLDEN_TLS.safe_writebacks_per_task == 0.375
        assert (
            GOLDEN_CHECKPOINT.false_rollback_invalidations
            == GOLDEN_CHECKPOINT.false_commit_invalidations
        )


class TestZeroDenominators:
    @pytest.mark.parametrize(
        "stats", [TmStats(), TlsStats(), CheckpointStats()]
    )
    def test_empty_stats_never_raise(self, stats):
        assert stats.avg_read_set == 0.0
        assert stats.avg_write_set == 0.0
        assert stats.avg_dependence_set == 0.0
        assert stats.false_squash_percent == 0.0
        assert stats.false_invalidations_per_commit == 0.0
        assert stats.safe_writebacks_per_commit == 0.0


class TestSharedBase:
    def test_all_three_inherit_spec_stats(self):
        for stats in GOLDEN:
            assert isinstance(stats, SpecStats)

    def test_base_accessors_are_abstract_in_spirit(self):
        base = SpecStats()
        with pytest.raises(NotImplementedError):
            base.commits
