"""Unit tests for grid points, one-attempt execution, and the cache."""

import json
from concurrent.futures import wait as futures_wait

import pytest

import repro.runner.grid as grid_module
from repro.analysis.experiments import run_tls_comparison, run_tm_comparison
from repro.errors import ConfigurationError, TraceError
from repro.runner import (
    GridExecutionError,
    GridRunner,
    ResultCache,
    checkpoint_point,
    code_fingerprint,
    comparison_from_dict,
    comparison_to_dict,
    execution_cost,
    submission_order,
    tls_point,
    tm_point,
)
from repro.runner.serialize import bandwidth_from_dict, bandwidth_to_dict


class TestGridPoint:
    def test_key_is_canonical_and_knob_order_independent(self):
        a = tm_point("mc", seed=7, txns_per_thread=3, include_partial=True)
        b = tm_point("mc", seed=7, include_partial=True, txns_per_thread=3)
        assert a == b
        assert a.key == b.key

    def test_kind_is_validated(self):
        with pytest.raises(ValueError):
            grid_module.GridPoint("bogus", "mc")

    def test_duplicate_points_are_merged(self):
        result = GridRunner(jobs=1).run(
            [tm_point("mc", txns_per_thread=2), tm_point("mc", txns_per_thread=2)]
        )
        assert len(result.results) == 1


class TestSubmissionOrder:
    def test_default_cost_ranks_tm_over_tls_over_checkpoint(self):
        tm = execution_cost(tm_point("mc"))
        tls = execution_cost(tls_point("gzip"))
        checkpoint = execution_cost(checkpoint_point("predictor"))
        assert tm > tls > checkpoint

    def test_cost_scales_with_the_kind_unit_knob(self):
        assert execution_cost(tm_point("mc", txns_per_thread=6)) == (
            2 * execution_cost(tm_point("mc", txns_per_thread=3))
        )

    def test_rollback_depth_multiplies_checkpoint_cost(self):
        shallow = checkpoint_point("predictor", num_epochs=16)
        deep = checkpoint_point("predictor", num_epochs=16, rollback_depth=4)
        assert execution_cost(deep) == 4 * execution_cost(shallow)

    def test_most_expensive_points_submit_first(self):
        points = [
            checkpoint_point("predictor", num_epochs=16),
            tm_point("mc", txns_per_thread=3),
            tls_point("gzip", num_tasks=30),
        ]
        ordered = submission_order(points)
        assert [p.kind for p in ordered] == ["tm", "tls", "checkpoint"]

    def test_equal_cost_ties_break_by_key(self):
        points = [
            tm_point("mc", txns_per_thread=3),
            tm_point("cb", txns_per_thread=3),
        ]
        ordered = submission_order(points)
        assert ordered == submission_order(list(reversed(points)))
        assert [p.key for p in ordered] == sorted(p.key for p in points)


class TestDefaultJobs:
    def test_affinity_mask_wins_over_host_cpu_count(self, monkeypatch):
        """A pinned process must size its pool by its affinity mask, not
        the host's core count (containers routinely pin far fewer)."""
        monkeypatch.setattr(
            grid_module.os, "sched_getaffinity", lambda pid: {0, 1, 2},
            raising=False,
        )
        monkeypatch.setattr(grid_module.os, "cpu_count", lambda: 64)
        assert grid_module.default_jobs() == 3

    def test_empty_affinity_set_falls_back_to_one(self, monkeypatch):
        monkeypatch.setattr(
            grid_module.os, "sched_getaffinity", lambda pid: set(),
            raising=False,
        )
        monkeypatch.setattr(grid_module.os, "cpu_count", lambda: 64)
        assert grid_module.default_jobs() == 1

    def test_cpu_count_is_the_fallback_without_affinity_support(
        self, monkeypatch
    ):
        monkeypatch.delattr(
            grid_module.os, "sched_getaffinity", raising=False
        )
        monkeypatch.setattr(grid_module.os, "cpu_count", lambda: 5)
        assert grid_module.default_jobs() == 5


class TestSerializationTolerance:
    """Enum skew between builds must degrade to zeros, never KeyError."""

    def test_unknown_category_and_kind_names_are_dropped(self):
        data = {
            "by_category": {"FILL": 76, "WARP_FIELD": 12},
            "commit_bytes": 5,
            "message_counts": {"FILL": 1, "WARP_FIELD": 1},
        }
        bandwidth = bandwidth_from_dict(data)
        assert bandwidth.total_bytes == 76
        assert bandwidth.commit_bytes == 5
        assert sum(bandwidth.message_counts.values()) == 1

    def test_missing_names_keep_their_zero_defaults(self):
        empty = bandwidth_from_dict(
            {"by_category": {}, "commit_bytes": 0, "message_counts": {}}
        )
        assert empty.total_bytes == 0

    def test_round_trip_is_lossless_for_known_names(self):
        comparison = run_tm_comparison("mc", txns_per_thread=2, seed=3)
        for stats in comparison.stats.values():
            rebuilt = bandwidth_from_dict(bandwidth_to_dict(stats.bandwidth))
            assert rebuilt.by_category == stats.bandwidth.by_category
            assert rebuilt.message_counts == stats.bandwidth.message_counts

    def test_stats_missing_bus_fields_default_to_zero(self):
        # A cache entry written before the interconnect fields existed.
        comparison = run_tm_comparison("mc", txns_per_thread=2, seed=3)
        encoded = comparison_to_dict(comparison)
        for stats in encoded["stats"].values():
            for name in list(stats):
                if name.startswith("bus_"):
                    del stats[name]
        rebuilt = comparison_from_dict(encoded)
        for stats in rebuilt.stats.values():
            assert stats.bus_grants == 0
            assert stats.bus_wait_by_port == {}

    def test_bus_wait_by_port_restores_int_keys(self):
        comparison = run_tm_comparison(
            "mc", txns_per_thread=2, seed=3, bus="timed:latency=2"
        )
        rebuilt = comparison_from_dict(comparison_to_dict(comparison))
        for scheme, stats in comparison.stats.items():
            other = rebuilt.stats[scheme]
            assert other.bus_wait_by_port == stats.bus_wait_by_port
            assert all(
                isinstance(key, int) for key in other.bus_wait_by_port
            )
            assert other.bus_grants == stats.bus_grants
            assert other.bus_wait_cycles == stats.bus_wait_cycles


class TestSerializationRoundTrip:
    def test_tm_comparison_round_trip(self):
        comparison = run_tm_comparison(
            "mc", txns_per_thread=3, seed=5, include_partial=True
        )
        rebuilt = comparison_from_dict(comparison_to_dict(comparison))
        assert rebuilt.app == comparison.app
        assert rebuilt.cycles == comparison.cycles
        for scheme, stats in comparison.stats.items():
            other = rebuilt.stats[scheme]
            assert other.committed_transactions == stats.committed_transactions
            assert other.squashes_by_processor == stats.squashes_by_processor
            assert other.bandwidth.total_bytes == stats.bandwidth.total_bytes
            assert other.bandwidth.commit_bytes == stats.bandwidth.commit_bytes
        assert rebuilt.speedup_over_eager("Bulk") == (
            comparison.speedup_over_eager("Bulk")
        )
        assert rebuilt.commit_bandwidth_vs_lazy() == (
            comparison.commit_bandwidth_vs_lazy()
        )

    def test_tls_comparison_round_trip(self):
        comparison = run_tls_comparison("gzip", num_tasks=30, seed=5)
        rebuilt = comparison_from_dict(comparison_to_dict(comparison))
        assert rebuilt.sequential_cycles == comparison.sequential_cycles
        assert rebuilt.cycles == comparison.cycles
        for scheme in comparison.stats:
            assert rebuilt.speedup(scheme) == comparison.speedup(scheme)


class TestOneAttemptPerPoint:
    """A point is a pure function of its parameters: it runs once, and
    the first point to raise stops the run."""

    @pytest.mark.parametrize("error", [RuntimeError, TraceError])
    def test_a_raising_point_runs_once_and_no_later_point_starts(
        self, monkeypatch, error
    ):
        calls = []

        def broken(payload):
            calls.append(payload["app"])
            raise error("always broken")

        monkeypatch.setattr(grid_module, "_execute_point", broken)
        first = tm_point("cb", txns_per_thread=2)
        with pytest.raises(GridExecutionError) as excinfo:
            GridRunner(jobs=1).run([tm_point("mc", txns_per_thread=2), first])
        assert calls == ["cb"]
        assert first.key in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, error)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_point_s_own_configuration_error_reaches_the_caller(self, jobs):
        runner = GridRunner(jobs=jobs)
        with pytest.raises(ConfigurationError, match="no-such-app"):
            runner.run([
                tm_point("mc", txns_per_thread=1),
                tm_point("no-such-app", txns_per_thread=1),
            ])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_any_other_error_names_the_point(self, jobs):
        bad = tm_point("mc", txns_per_thread=1, no_such_knob=1)
        runner = GridRunner(jobs=jobs)
        with pytest.raises(GridExecutionError) as excinfo:
            runner.run([tm_point("cb", txns_per_thread=1), bad])
        assert bad.key in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, TypeError)

    def test_a_pool_caches_the_successes_of_a_failing_batch(
        self, monkeypatch, tmp_path
    ):
        # Hand both points back in one batch, the failing one included.
        monkeypatch.setattr(
            grid_module, "wait",
            lambda futures, return_when: futures_wait(futures),
        )
        good = tm_point("mc", txns_per_thread=1)
        with pytest.raises(ConfigurationError):
            GridRunner(jobs=2, cache_dir=tmp_path).run(
                [good, tm_point("no-such-app", txns_per_thread=1)]
            )
        rerun = GridRunner(jobs=1, cache_dir=tmp_path).run([good])
        assert rerun.cached_keys == [good.key]

    def test_an_interrupted_run_keeps_its_finished_points(
        self, monkeypatch, tmp_path
    ):
        real = grid_module._execute_point
        points = [
            tm_point(app, txns_per_thread=1)
            for app in ("cb", "jgrt", "lu", "mc")
        ]
        calls = []

        def counted(payload):
            calls.append(payload["app"])
            return real(payload)

        def interrupted_at_the_third(payload):
            if len(calls) == 2:
                raise KeyboardInterrupt
            return counted(payload)

        monkeypatch.setattr(
            grid_module, "_execute_point", interrupted_at_the_third
        )
        with pytest.raises(KeyboardInterrupt):
            GridRunner(jobs=1, cache_dir=tmp_path).run(points)
        assert calls == ["cb", "jgrt"]

        calls.clear()
        monkeypatch.setattr(grid_module, "_execute_point", counted)
        rerun = GridRunner(jobs=1, cache_dir=tmp_path).run(points)
        assert rerun.cached_keys == [point.key for point in points[:2]]
        assert calls == ["lu", "mc"]
        assert list(rerun.results) == [point.key for point in points]


class TestResultCache:
    def test_fingerprint_is_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_corrupt_entries_are_treated_as_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"kind": "tm", "app": "mc", "seed": 1, "knobs": {}}
        key = cache.key_for(payload)
        cache.put(key, payload, {"answer": 42})
        assert cache.get(key) == {"answer": 42}
        (tmp_path / f"{key}.json").write_text("not json at all")
        assert cache.get(key) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        payload = {"kind": "tm", "app": "mc", "seed": 1, "knobs": {}}
        key = cache.key_for(payload)
        cache.put(key, payload, {"answer": 42})
        entry = json.loads((tmp_path / f"{key}.json").read_text())
        entry["schema"] = -1
        (tmp_path / f"{key}.json").write_text(json.dumps(entry))
        assert cache.get(key) is None

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            GridRunner(jobs=0)
