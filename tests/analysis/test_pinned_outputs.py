"""Figure 15 samples and unobserved TM comparisons are byte-identical
across changes.

The 19 goldens run Figure 15 at ``repro reproduce``'s default sizing;
this file pins the sizings the end-to-end benchmark runs, where the
sample budget stops most runs early: the SHA-256 of
``collect_tm_samples`` at seed 42, the Table 8 sweep over one of those
sample sets, and the seven unobserved TM comparisons with Bulk-Partial,
six of which copy Bulk's run instead of simulating it again.

Samples are hashed as the benchmark hashes them (each set sorted).  A
comparison is hashed over its cycles and stats, with the stats fields
that equal their dataclass default left out, as in
``tests/checkpoint/test_pinned_outputs.py``.
"""

import dataclasses
import hashlib

import pytest

from repro.analysis.accuracy import collect_tm_samples, sweep_signature_configs
from repro.analysis.experiments import run_tm_comparison
from repro.core.signature_config import TABLE8_CONFIGS
from repro.runner.serialize import canonical_json, comparison_to_dict

#: (txns per thread, samples per app) -> (sample count, digest): the
#: ``sig-accuracy`` and ``reproduce`` benchmark sizings.
SAMPLE_PINS = {
    (3, 100): (560, "16d3ffa1de4570c991ef5c51c4a579daa369f28edd991eaca2b8c3da4ae417d4"),
    (4, 30): (210, "c72e6f88edb87d6b60378f3cbe3a649b70e22757d186842d9d6a8a3efabe7080"),
}
#: The Table 8 rows over the (3, 100) samples, one permutation each.
SWEEP_PIN = "e03193298db7194243520ecb47482959cebca591ab94d017256dc8e912af975b"
COMPARISON_PINS = {
    "cb": "d15a49f2d7dafcca495486ec1e868137476edab35728f1ab0c723b036373b281",
    "jgrt": "10a8f7afba880b5c86f584312568c90051dfd4e77e490b8dc06e04d00f7ad9e1",
    "lu": "ec26d656b67307df740b00d2fb274c3d5aa5a04c88243797ad4eefd6e1b3f8ed",
    "mc": "2de5840a07cb5f56573c9348e3bc756e2a647ae79b7694dc2e3a71909007dfcf",
    "moldyn": "0ba17e79e0859e8856f9f2558ec9c1d85d762b6d03af8dabbe8e74801908756f",
    "series": "060dda30ac3959234a48b0f682e2663ecda3c0d7222a526d6ea7c149afccfe25",
    "sjbb2k": "dd0dd1bba529c28d1bae99d84954fce1096b53ae6ef8265128b768563b512b81",
}


def digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def encoded_samples(samples) -> list:
    return [[sorted(part) for part in sample] for sample in samples]


def cycles_and_stats(comparison) -> dict:
    """Cycles and stats of ``comparison_to_dict``, minus every stats
    field at its default."""
    data = comparison_to_dict(comparison)
    for scheme, stats in comparison.stats.items():
        for spec in dataclasses.fields(stats):
            default = (
                spec.default_factory()
                if spec.default is dataclasses.MISSING
                else spec.default
            )
            if getattr(stats, spec.name) == default:
                del data["stats"][scheme][spec.name]
    return {"cycles": data["cycles"], "stats": data["stats"]}


@pytest.mark.parametrize("txns, budget", sorted(SAMPLE_PINS))
def test_samples_are_pinned(txns, budget):
    samples = collect_tm_samples(
        txns_per_thread=txns, seed=42, max_samples_per_app=budget
    )
    count, pin = SAMPLE_PINS[txns, budget]
    assert len(samples) == count
    assert digest(encoded_samples(samples)) == pin


def test_sweep_is_pinned():
    samples = collect_tm_samples(
        txns_per_thread=3, seed=42, max_samples_per_app=100
    )
    rows = sweep_signature_configs(
        TABLE8_CONFIGS, samples, permutations_per_config=1, seed=42
    )
    assert digest([dataclasses.asdict(row) for row in rows]) == SWEEP_PIN


@pytest.mark.parametrize("app", sorted(COMPARISON_PINS))
def test_comparison_is_pinned(app):
    comparison = run_tm_comparison(
        app, txns_per_thread=3, seed=42, include_partial=True
    )
    assert digest(cycles_and_stats(comparison)) == COMPARISON_PINS[app]
