"""Parallel experiment execution: grids, worker pools, result caching.

The evaluation's figure and table drivers all reduce to sweeping
``run_tm_comparison`` / ``run_tls_comparison`` /
``run_checkpoint_comparison`` over an (application × seed × knob) grid.  This package runs such grids across worker
processes with deterministic merging, per-point retry, and an on-disk
result cache keyed by parameters *and* simulator code — see
``docs/RUNNER.md`` for the full contract.

>>> from repro.runner import GridRunner, tm_point
>>> runner = GridRunner(jobs=4)                        # doctest: +SKIP
>>> merged = runner.run([tm_point("mc"), tm_point("cb")])  # doctest: +SKIP
"""

from repro.runner.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    code_fingerprint,
)
from repro.runner.grid import (
    FailureRecord,
    GridExecutionError,
    GridPoint,
    GridResult,
    GridRunner,
    checkpoint_point,
    default_jobs,
    execution_cost,
    load_failure_records,
    submission_order,
    tls_point,
    tm_point,
)
from repro.runner.serialize import (
    canonical_json,
    comparison_from_dict,
    comparison_to_dict,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "FailureRecord",
    "GridExecutionError",
    "GridPoint",
    "GridResult",
    "GridRunner",
    "ResultCache",
    "canonical_json",
    "checkpoint_point",
    "code_fingerprint",
    "comparison_from_dict",
    "comparison_to_dict",
    "default_jobs",
    "execution_cost",
    "load_failure_records",
    "submission_order",
    "tls_point",
    "tm_point",
]
