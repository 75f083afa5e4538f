"""The workload builders reject sizes below 1."""

import pytest

from repro.checkpoint.workload import build_checkpoint_workload
from repro.errors import ConfigurationError
from repro.workloads.kernels import TM_KERNELS, build_tm_workload
from repro.workloads.tls_spec import build_tls_workload

BUILDERS = {
    "tm": build_tm_workload,
    "tls": build_tls_workload,
    "checkpoint": build_checkpoint_workload,
}


@pytest.mark.parametrize(
    "substrate, app, size, value",
    [("tm", app, "num_threads", 0) for app in sorted(TM_KERNELS)]
    + [
        ("tm", "lu", "txns_per_thread", 0),
        ("tm", "lu", "txns_per_thread", -1),
        ("tls", "gzip", "num_tasks", 0),
        ("checkpoint", "predictor", "num_epochs", 0),
    ],
)
def test_size_below_one_rejected(substrate, app, size, value):
    with pytest.raises(
        ConfigurationError, match=f"^{size} must be at least 1, got {value}$"
    ):
        BUILDERS[substrate](app, **{size: value})
