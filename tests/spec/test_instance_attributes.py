"""Every simulator system stays under CPython's shared-key limit.

CPython 3.11 gives an instance an unshared ``__dict__`` once it holds 30
attributes, and every attribute load on the simulators' hot paths gets
slower: a 30-attribute TmSystem ran about 5% slower on the TM paper
workload.  Attributes may be set lazily during a run (observability),
so they are counted after runs under every registered scheme, plain and
with metrics and tracing on.
"""

import pytest

from repro.analysis.experiments import (
    run_checkpoint_comparison,
    run_tls_comparison,
    run_tm_comparison,
)
from repro.checkpoint.system import CheckpointSystem
from repro.obs import Observability
from repro.spec import scheme_names
from repro.tls.system import TlsSystem
from repro.tm.system import TmSystem

#: CPython 3.11 unshares an instance ``__dict__`` at this many attributes.
SHARED_KEY_LIMIT = 30

SYSTEMS = {"tm": TmSystem, "tls": TlsSystem, "checkpoint": CheckpointSystem}


@pytest.fixture
def attribute_counts(monkeypatch):
    """``{(substrate, starting scheme): attributes after the run}``."""
    counts = {}
    for substrate, cls in SYSTEMS.items():
        def counted(system, run=cls.run, substrate=substrate):
            key = (substrate, system.scheme.name)
            result = run(system)
            counts[key] = max(counts.get(key, 0), len(vars(system)))
            return result

        monkeypatch.setattr(cls, "run", counted)
    return counts


@pytest.mark.parametrize("observed", [False, True])
def test_systems_stay_under_the_shared_key_limit(attribute_counts, observed):
    def obs():
        return Observability() if observed else None

    # sjbb2k is the one TM kernel that nests, so Bulk-Partial runs its
    # own system even when the comparison is unobserved.
    run_tm_comparison(
        "sjbb2k", txns_per_thread=2, include_partial=True, obs=obs()
    )
    run_tls_comparison("gzip", num_tasks=8, obs=obs())
    run_checkpoint_comparison("predictor", num_epochs=8, obs=obs())
    assert set(attribute_counts) == {
        (substrate, name)
        for substrate in SYSTEMS
        for name in scheme_names(substrate, include_variants=True)
    }
    for (substrate, scheme), count in sorted(attribute_counts.items()):
        assert count < SHARED_KEY_LIMIT, (
            f"{SYSTEMS[substrate].__name__} under {scheme} has {count} "
            f"instance attributes; CPython 3.11 unshares the instance "
            f"__dict__ at {SHARED_KEY_LIMIT}, which slows every attribute "
            f"load on the simulator's hot paths"
        )
