"""Parallel experiment execution: grids, worker pools, result caching.

The evaluation's figure and table drivers all reduce to sweeping
``run_tm_comparison`` / ``run_tls_comparison`` /
``run_checkpoint_comparison`` over an (application × seed × knob) grid,
plus one ``run_accuracy_study`` point for Figure 15 / Table 8 that
shares the grid's workers.  This package runs such grids across worker
processes with deterministic merging, one attempt per point, and an
on-disk result cache keyed by parameters *and* simulator code that
stores each comparison point as it finishes (the accuracy study is
recomputed on every run) — see ``docs/RUNNER.md`` for the full
contract.

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
    GridExecutionError,
    GridPoint,
    GridResult,
    GridRunner,
    accuracy_point,
    checkpoint_point,
    default_jobs,
    execution_cost,
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
    "GridExecutionError",
    "GridPoint",
    "GridResult",
    "GridRunner",
    "ResultCache",
    "accuracy_point",
    "canonical_json",
    "checkpoint_point",
    "code_fingerprint",
    "comparison_from_dict",
    "comparison_to_dict",
    "default_jobs",
    "execution_cost",
    "submission_order",
    "tls_point",
    "tm_point",
]
