"""Checkpoint outputs on the default path are byte-identical across changes.

The 19 goldens pin TM and TLS; this file pins the checkpoint substrate
on the default run options (packed signatures, legacy bus): the SHA-256
of each comparison's ``comparison_to_dict`` for every workload at
rollback depths 1-3, and one observed comparison's metrics snapshot and
trace summary.

The stats are hashed without the fields that equal their dataclass
default.  Any change of any value still moves a pin; only adding or
deleting a field that sits at its default in every pinned run does not
(the always-zero ``bus_*`` contention fields, for one).
"""

import dataclasses
import hashlib

import pytest

from repro.analysis.experiments import run_checkpoint_comparison
from repro.obs import Observability
from repro.runner.serialize import canonical_json, comparison_to_dict

PINS = {
    ("hotset", 1): "4b289950b3b8c7990975a4337101e68d863fba804b74b8b6ccc5f0e0dcd9902a",
    ("hotset", 2): "7ae7edb9f4208b9c789f5059908604cbb2abbace3f8e45631ee78ca2b445ed9b",
    ("hotset", 3): "56a72a773e9af14fb9f06f05ca5629f4e053b2796800b4696dd23f0680e62abd",
    ("predictor", 1): "d00dae02020c0ac03125d5e3b12b7ccc8810fe573de07c217b48837f606e491b",
    ("predictor", 2): "571d3ee3e01a3d59ae52f7462c7b6726794e795489c2fe7084eb2e00f06b3625",
    ("predictor", 3): "9bcc2e91772c15a81ce70266af855824a7808822884f6798d936390a69f0c416",
    ("stream", 1): "dbf2676b9cfa71ea2d47588a0c7ea1d457dcb7ab1e2ea9d6e4158d68bc22cd68",
    ("stream", 2): "b9a63b65f90673d6bc18241995434871219074ba5e7f18b84afffbeb2742b13c",
    ("stream", 3): "3abcf554c0cb008142b6179bfafb7fa9bfd6efafd9258902ca8cb614bd8607d8",
}
#: ``predictor`` at depth 3, the pinned run with false invalidations.
OBSERVED_METRICS = "af2422af30e890eee19c197bfcd3a2cf72cba228f63358ab785b3fe96549bf47"
OBSERVED_SUMMARY = "4d98ee610d658f1b5c4c3f2e803a9297db36760f48c8750276929ecca831b276"


def digest(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def without_defaults(comparison) -> dict:
    """``comparison_to_dict`` minus every stats field at its default."""
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
    return data


@pytest.mark.parametrize("app, depth", sorted(PINS))
def test_comparison_is_pinned(app, depth):
    comparison = run_checkpoint_comparison(
        app, num_epochs=32, seed=42, rollback_depth=depth
    )
    assert digest(without_defaults(comparison)) == PINS[app, depth]


def test_observed_comparison_is_pinned():
    obs = Observability()
    run_checkpoint_comparison(
        "predictor", num_epochs=32, seed=42, rollback_depth=3, obs=obs
    )
    assert digest(obs.metrics.snapshot()) == OBSERVED_METRICS
    assert digest(obs.tracer.summary()) == OBSERVED_SUMMARY
