"""The Figure 15 / Table 8 study as a grid point of kind ``accuracy``.

It shares the pool with the scheme comparisons, but the runner neither
caches nor instruments it.
"""

import json
import os

import pytest

import repro.analysis.accuracy as accuracy_module
from repro.analysis.accuracy import AccuracyStudy, run_accuracy_study
from repro.errors import ConfigurationError
from repro.runner import (
    GridRunner,
    accuracy_point,
    canonical_json,
    comparison_from_dict,
    comparison_to_dict,
    submission_order,
    tls_point,
    tm_point,
)
from repro.workloads.kernels import TM_KERNELS
from repro.workloads.tls_spec import TLS_APPLICATIONS

SMALL = {
    "txns_per_thread": 1, "max_samples_per_app": 5,
    "permutations_per_config": 1,
}


def _grid(**knobs):
    """The study (``knobs`` override its sizes), one TM and one TLS point."""
    return [
        accuracy_point(seed=5, **{**SMALL, **knobs}),
        tm_point("mc", seed=5, txns_per_thread=1),
        tls_point("gzip", seed=5, num_tasks=8),
    ]


@pytest.mark.parametrize("tm_txns, tls_tasks, samples", [
    (2, 20, 30),     # the end-to-end benchmark's reproduce sizing
    (10, 120, 200),  # reproduce's defaults
])
def test_the_study_enters_the_pool_first(tm_txns, tls_tasks, samples):
    points = [
        tm_point(app, txns_per_thread=tm_txns, include_partial=True)
        for app in sorted(TM_KERNELS)
    ] + [
        tls_point(app, num_tasks=tls_tasks) for app in sorted(TLS_APPLICATIONS)
    ] + [
        accuracy_point(
            txns_per_thread=max(4, tm_txns // 2),
            max_samples_per_app=samples,
            permutations_per_config=2,
        )
    ]
    assert submission_order(points)[0].kind == "accuracy"


def test_a_study_round_trips_exactly():
    study = run_accuracy_study(seed=5, **SMALL)
    assert isinstance(study, AccuracyStudy) and study.samples > 0
    assert comparison_from_dict(comparison_to_dict(study)) == study
    through_json = json.loads(canonical_json(comparison_to_dict(study)))
    assert comparison_from_dict(through_json) == study


def test_worker_count_does_not_change_the_merge():
    serial = GridRunner(jobs=1).run(_grid())
    assert GridRunner(jobs=2).run(_grid()).to_json() == serial.to_json()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_bad_size_is_a_configuration_error(jobs):
    with pytest.raises(ConfigurationError, match="txns_per_thread"):
        GridRunner(jobs=jobs).run(_grid(txns_per_thread=0))


def test_an_unknown_catalogue_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="no-such-catalogue"):
        GridRunner(jobs=1).run([accuracy_point("no-such-catalogue", **SMALL)])


def test_an_observed_grid_does_not_instrument_the_study():
    study, *comparisons = _grid()
    observed = GridRunner(jobs=1, observability=True).run(_grid())
    assert sorted(observed.results) == sorted(p.key for p in _grid())
    assert sorted(observed.metrics) == sorted(p.key for p in comparisons)
    assert sorted(observed.traces) == sorted(p.key for p in comparisons)
    assert isinstance(observed.comparison(study), AccuracyStudy)


def test_the_study_is_never_cached(tmp_path):
    study, *comparisons = _grid()
    GridRunner(jobs=1, cache_dir=tmp_path).run(_grid())
    assert len(list(tmp_path.glob("*.json"))) == len(comparisons)
    rerun = GridRunner(jobs=1, cache_dir=tmp_path).run(_grid())
    assert sorted(rerun.cached_keys) == sorted(p.key for p in comparisons)
    assert study.key in rerun.results


@pytest.mark.parametrize("jobs, in_parent", [(1, 1), (2, 0)])
def test_with_a_pool_the_study_runs_in_a_worker(monkeypatch, jobs, in_parent):
    """A pool worker's calls are invisible here; only the parent's count."""
    parent = os.getpid()
    calls = []
    real = accuracy_module.collect_tm_samples

    def recorded(*args, **kwargs):
        calls.append(os.getpid())
        return real(*args, **kwargs)

    monkeypatch.setattr(accuracy_module, "collect_tm_samples", recorded)
    GridRunner(jobs=jobs).run(_grid())
    assert calls == [parent] * in_parent
