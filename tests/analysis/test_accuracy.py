"""Tests for the signature accuracy harness (Figure 15 machinery)."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import accuracy
from repro.analysis.accuracy import (
    AccuracyRow,
    average_compressed_bits,
    collect_tm_samples,
    false_positive_fraction,
    sweep_signature_configs,
)
from repro.analysis.experiments import run_tm_comparison
from repro.core.permutation import BitPermutation
from repro.core.rle import rle_size_bits
from repro.core.signature import Signature
from repro.core.signature_config import (
    SignatureConfig,
    TABLE8_CONFIGS,
    default_tm_config,
    table8_config,
)
from repro.errors import ConfigurationError
from repro.mem.address import Granularity
from repro.sim.rng import SubstreamRng
from repro.spec import scheme_entries
from repro.tm.lazy import LazyScheme
from repro.tm.params import TM_DEFAULTS
from repro.tm.system import TmSystem
from repro.workloads.kernels import TM_KERNELS, build_tm_workload


# The per-sample definitions the interned kernels must reproduce exactly:
# three fresh registers per sample, one RLE size per sample.

def reference_false_positive_fraction(config, samples):
    if not samples:
        return 0.0
    false_positives = 0
    for committed_writes, receiver_reads, receiver_writes in samples:
        w_c = Signature.from_addresses(config, committed_writes)
        r_r = Signature.from_addresses(config, receiver_reads)
        w_r = Signature.from_addresses(config, receiver_writes)
        if w_c.intersects(r_r) or w_c.intersects(w_r):
            false_positives += 1
    return false_positives / len(samples)


def reference_average_compressed_bits(config, samples):
    if not samples:
        return 0.0
    total = 0
    for committed_writes, _, _ in samples:
        total += rle_size_bits(Signature.from_addresses(config, committed_writes))
    return total / len(samples)


def reference_sweep(configs, samples, permutations_per_config=4, seed=11):
    rng = SubstreamRng(seed)
    rows = []
    for name in sorted(configs, key=lambda n: (len(n), n)):
        config = configs[name]
        nominal = reference_false_positive_fraction(config, samples)
        fractions = [nominal]
        for index in range(permutations_per_config):
            permutation = BitPermutation.shuffled(
                config.granularity.address_bits,
                rng.stream("figure15", name, index),
            )
            fractions.append(reference_false_positive_fraction(
                config.with_permutation(permutation), samples
            ))
        rows.append(AccuracyRow(
            name=name,
            full_size_bits=config.size_bits,
            avg_compressed_bits=reference_average_compressed_bits(
                config, samples
            ),
            fp_nominal=nominal,
            fp_best=min(fractions),
            fp_worst=max(fractions),
        ))
    return rows


# Fresh configurations, so the references' memo fills stay out of the
# shared TABLE8_CONFIGS.  The tiny one aliases on most samples.
KERNEL_CONFIGS = [
    SignatureConfig.make((4, 4), Granularity.LINE, name="tiny"),
] + [table8_config(name) for name in ("S1", "S9", "S14", "S23")]
SWEEP_CONFIGS = {config.name: config for config in KERNEL_CONFIGS}


@st.composite
def sample_lists(draw):
    """Samples over a few shared set objects: empty sets, one object
    repeated across samples, equal but distinct frozensets, overlapping
    (true-dependence) triples, and the empty list."""
    pool = draw(st.lists(
        st.one_of(st.integers(0, 255), st.integers(0, (1 << 26) - 1)),
        min_size=1, max_size=24, unique=True,
    ))
    objects = draw(st.lists(
        st.frozensets(st.sampled_from(pool), max_size=8),
        min_size=1, max_size=8,
    ))

    def part():
        chosen = draw(st.sampled_from(objects))
        if draw(st.booleans()):
            return frozenset(list(chosen))  # equal value, new object
        return chosen

    return [
        (part(), part(), part())
        for _ in range(draw(st.integers(0, 12)))
    ]


def hand_samples():
    """Samples with known-disjoint sets (clustered, like real traffic)."""
    samples = []
    for i in range(40):
        base_w = (i * 977) << 8
        base_r = ((i * 977) << 8) + 0x100000
        wc = frozenset(base_w + j for j in range(8))
        rr = frozenset(base_r + j for j in range(20))
        samples.append((wc, rr, frozenset()))
    return samples


class TestFalsePositiveFraction:
    def test_empty_samples(self):
        assert false_positive_fraction(default_tm_config(), []) == 0.0

    def test_tiny_signature_aliases_more(self):
        tiny = SignatureConfig.make((4, 4), Granularity.LINE, name="tiny")
        big = default_tm_config()
        samples = hand_samples()
        assert false_positive_fraction(tiny, samples) >= (
            false_positive_fraction(big, samples)
        )

    def test_true_dependences_always_fire(self):
        # Not a "false" positive: overlapping sets must intersect.
        config = default_tm_config()
        overlap = [(frozenset({1, 2}), frozenset({2}), frozenset())]
        assert false_positive_fraction(config, overlap) == 1.0


class TestSweep:
    def test_rows_cover_requested_configs(self):
        subset = {k: TABLE8_CONFIGS[k] for k in ("S1", "S14")}
        rows = sweep_signature_configs(
            subset, hand_samples(), permutations_per_config=1
        )
        assert [row.name for row in rows] == ["S1", "S14"]
        for row in rows:
            assert row.fp_best <= row.fp_nominal <= row.fp_worst
            assert row.full_size_bits == TABLE8_CONFIGS[row.name].size_bits

    def test_compressed_smaller_than_full(self):
        config = TABLE8_CONFIGS["S14"]
        assert 0 < average_compressed_bits(config, hand_samples()) < 2048


class TestSampleCollection:
    def test_samples_have_disjoint_exact_sets(self):
        samples = collect_tm_samples(
            apps=["series"], txns_per_thread=4, max_samples_per_app=100
        )
        assert samples
        for wc, rr, wr in samples:
            assert wc  # empty write sets are filtered
            assert not (wc & rr) and not (wc & wr)

    @pytest.mark.parametrize("kwargs, name", [
        ({"max_samples_per_app": 0}, "max_samples_per_app"),
        ({"max_samples_per_app": -3}, "max_samples_per_app"),
        ({"txns_per_thread": 0}, "txns_per_thread"),
        ({"txns_per_thread": -1}, "txns_per_thread"),
        # lu ignores the transaction count, so it alone would sample.
        ({"txns_per_thread": 0, "apps": ["lu"]}, "txns_per_thread"),
    ])
    def test_rejects_counts_below_one(self, monkeypatch, kwargs, name):
        def no_build(*_args, **_kwargs):
            raise AssertionError("a workload was built")

        monkeypatch.setattr(accuracy, "build_tm_workload", no_build)
        with pytest.raises(ConfigurationError, match=name):
            collect_tm_samples(**kwargs)


class TestKernelsMatchTheReference:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(KERNEL_CONFIGS), sample_lists())
    def test_single_configuration_functions(self, config, samples):
        assert false_positive_fraction(config, samples) == (
            reference_false_positive_fraction(config, samples)
        )
        assert average_compressed_bits(config, samples) == (
            reference_average_compressed_bits(config, samples)
        )

    @settings(max_examples=15, deadline=None)
    @given(sample_lists(), st.integers(0, 2))
    def test_sweep_rows(self, samples, permutations):
        assert sweep_signature_configs(
            SWEEP_CONFIGS, samples, permutations_per_config=permutations
        ) == reference_sweep(
            SWEEP_CONFIGS, samples, permutations_per_config=permutations
        )

    def test_shared_and_equal_set_objects(self):
        shared = frozenset({3, 4, 5})
        samples = [
            (shared, frozenset({7}), frozenset()),
            (shared, frozenset({7}), shared),
            (frozenset([3, 4, 5]), frozenset(), frozenset({6})),
            (frozenset(), shared, shared),
        ]
        for config in KERNEL_CONFIGS:
            assert false_positive_fraction(config, samples) == (
                reference_false_positive_fraction(config, samples)
            )
            assert average_compressed_bits(config, samples) == (
                reference_average_compressed_bits(config, samples)
            )

    def test_hand_samples_sweep(self):
        samples = hand_samples()
        assert sweep_signature_configs(SWEEP_CONFIGS, samples) == (
            reference_sweep(SWEEP_CONFIGS, samples)
        )

    def test_empty_sample_list_sweep(self):
        rows = sweep_signature_configs(SWEEP_CONFIGS, [])
        assert rows == reference_sweep(SWEEP_CONFIGS, [])
        for row in rows:
            assert row.avg_compressed_bits == row.fp_nominal == 0.0
            assert row.fp_best == row.fp_worst == 0.0


def test_sweep_fills_no_shared_memo():
    """Every configuration is evaluated without touching the memos of
    the shared ``TABLE8_CONFIGS`` (which outlive the sweep)."""
    samples = [
        (frozenset({0x2A50000 + 37 * i, 0x2A60000 + i}),
         frozenset({0x2B50000 + 41 * i}),
         frozenset({0x2C50000 + i}))
        for i in range(16)
    ]

    def sizes():
        return {
            name: (len(config._flat_mask_cache), len(config._rle_cache))
            for name, config in TABLE8_CONFIGS.items()
        }

    before = sizes()
    sweep_signature_configs(TABLE8_CONFIGS, samples, permutations_per_config=1)
    false_positive_fraction(TABLE8_CONFIGS["S14"], samples)
    average_compressed_bits(TABLE8_CONFIGS["S14"], samples)
    assert sizes() == before


# ----------------------------------------------------------------------
# The sample budget stop
# ----------------------------------------------------------------------

TM_APPS = sorted(TM_KERNELS)


@functools.lru_cache(maxsize=None)
def full_lazy_runs(txns, budget, seed):
    """Each application's Lazy run to completion with the same cap, as
    ``collect_tm_samples`` ran it before the budget stop."""
    return [
        TmSystem(
            build_tm_workload(
                app,
                num_threads=TM_DEFAULTS.num_processors,
                txns_per_thread=txns,
                seed=seed,
            ),
            LazyScheme(),
            TM_DEFAULTS,
            collect_samples=True,
            max_samples=budget,
        ).run()
        for app in TM_APPS
    ]


def reference_samples(txns, budget, seed):
    return [
        sample
        for result in full_lazy_runs(txns, budget, seed)
        for sample in result.samples
        if sample[0]
    ]


@pytest.fixture
def record_tm_runs(monkeypatch):
    """Starts recording every later ``TmSystem.run`` call, as
    ``[system, result]``; ``result`` stays ``None`` for a run that
    raised."""

    def start():
        calls = []
        run = TmSystem.run

        def recorded(system):
            calls.append([system, None])
            calls[-1][1] = run(system)
            return calls[-1][1]

        monkeypatch.setattr(TmSystem, "run", recorded)
        return calls

    return start


class TestSampleBudgetStop:
    @pytest.mark.parametrize("txns, budget", [(4, 30), (3, 100)])
    def test_samples_equal_the_full_runs(self, record_tm_runs, txns, budget):
        reference = reference_samples(txns, budget, 42)
        runs = record_tm_runs()
        samples = collect_tm_samples(
            txns_per_thread=txns, seed=42, max_samples_per_app=budget
        )
        assert samples == reference
        # One run per application, through TmSystem.run.
        assert len(runs) == len(TM_APPS)

    def test_full_budgets_stop_early(self, record_tm_runs):
        full_runs = full_lazy_runs(4, 30, 42)
        runs = record_tm_runs()
        collect_tm_samples(txns_per_thread=4, seed=42, max_samples_per_app=30)
        assert len(runs) == len(full_runs)
        for (system, result), full in zip(runs, full_runs):
            assert result is None  # stopped at its budget
            assert len(system.samples) == 30
            assert len(system.commit_order) < len(full.commit_order)
            assert system.commit_order == (
                full.commit_order[: len(system.commit_order)]
            )

    def test_unfilled_budgets_run_to_the_end(self, record_tm_runs):
        full_runs = full_lazy_runs(3, 100, 42)
        runs = record_tm_runs()
        collect_tm_samples(
            txns_per_thread=3, seed=42, max_samples_per_app=100
        )
        unfilled = 0
        for (system, result), full in zip(runs, full_runs):
            if len(full.samples) == 100:
                continue
            unfilled += 1
            assert result is not None
            assert result.cycles == full.cycles
            assert result.commit_order == full.commit_order
        assert unfilled == len(TM_APPS) - 1  # all but lu

    def test_comparison_sampling_runs_to_completion(self, record_tm_runs):
        traces = build_tm_workload(
            "mc", num_threads=TM_DEFAULTS.num_processors,
            txns_per_thread=4, seed=3,
        )
        full_runs = {}
        for entry in scheme_entries("tm"):
            full_runs[entry.name] = TmSystem(
                traces, entry.factory(), TM_DEFAULTS, collect_samples=True
            ).run()
        runs = record_tm_runs()
        comparison = run_tm_comparison(
            "mc", txns_per_thread=4, seed=3, collect_samples=True
        )
        assert [type(system) for system, _ in runs] == (
            [TmSystem] * len(full_runs)
        )
        for name, full in full_runs.items():
            assert comparison.cycles[name] == full.cycles
            assert comparison.stats[name] == full.stats
            assert comparison.samples_by_scheme[name] == full.samples
