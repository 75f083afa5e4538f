"""Replay: stored traces through the drivers, the grid, and the CLI.

The headline acceptance criterion lives here: replaying one trace id
produces **byte-identical** merged artifacts at any ``--jobs`` count and
from any store holding it, because the id pins the logical record stream
and the grid merge is canonical.
"""

import pytest

from repro.analysis.experiments import (
    run_checkpoint_comparison,
    run_tls_comparison,
    run_tm_comparison,
)
from repro.errors import ConfigurationError, TraceError
from repro.runner import GridRunner, checkpoint_point, tls_point, tm_point
from repro.trace import (
    TraceStore,
    ingest_checkpoint,
    ingest_tls,
    ingest_tm,
    load_trace_workload,
)


@pytest.fixture(scope="module")
def stocked_store(tmp_path_factory):
    """One store holding a small trace of every kind."""
    directory = tmp_path_factory.mktemp("trace-store")
    store = TraceStore(directory)
    ids = {
        "tm": ingest_tm(
            store, "mc", num_threads=2, txns_per_thread=3
        ).trace_id,
        "tm-8": ingest_tm(store, "mc", txns_per_thread=3).trace_id,
        "tls": ingest_tls(store, "gzip", num_tasks=10).trace_id,
        "checkpoint": ingest_checkpoint(
            store, "predictor", num_epochs=10
        ).trace_id,
    }
    return directory, ids


class TestDriverReplay:
    def test_tm_replay_matches_the_generated_run(self, stocked_store):
        """A trace captured at the default sizing (8 threads) replays to
        the generated run's cycles and stats under every scheme."""
        directory, ids = stocked_store
        replayed = run_tm_comparison(
            "mc", trace=ids["tm-8"], trace_store=directory
        )
        generated = run_tm_comparison("mc", txns_per_thread=3, seed=42)
        assert replayed.cycles == generated.cycles
        assert replayed.stats == generated.stats

    def test_tm_replay_is_deterministic(self, stocked_store):
        directory, ids = stocked_store
        a = run_tm_comparison("mc", trace=ids["tm"], trace_store=directory)
        b = run_tm_comparison("mc", trace=ids["tm"], trace_store=directory)
        assert a.cycles == b.cycles

    def test_tm_replay_resizes_num_processors_to_the_trace(self, stocked_store):
        directory, ids = stocked_store
        traces = load_trace_workload("tm", directory, ids["tm"])
        assert len(traces) == 2  # captured with 2 threads

    def test_tls_replay_equals_a_generated_run_of_the_same_workload(
        self, stocked_store
    ):
        directory, ids = stocked_store
        replayed = run_tls_comparison(
            "gzip", trace=ids["tls"], trace_store=directory
        )
        generated = run_tls_comparison("gzip", num_tasks=10, seed=42)
        assert replayed.cycles == generated.cycles
        assert replayed.sequential_cycles == generated.sequential_cycles

    def test_checkpoint_replay_equals_a_generated_run(self, stocked_store):
        directory, ids = stocked_store
        replayed = run_checkpoint_comparison(
            "predictor", trace=ids["checkpoint"], trace_store=directory
        )
        generated = run_checkpoint_comparison(
            "predictor", num_epochs=10, seed=42
        )
        assert replayed.cycles == generated.cycles

    def test_trace_without_store_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="--trace-store"):
            run_tm_comparison("mc", trace="f" * 64)

    def test_kind_mismatch_is_a_trace_error(self, stocked_store):
        directory, ids = stocked_store
        with pytest.raises(TraceError, match="cannot replay"):
            run_tm_comparison("mc", trace=ids["tls"], trace_store=directory)

    def test_default_paths_are_untouched_by_the_new_parameters(self):
        """``trace=None`` must leave generated runs byte-identical —
        the golden-pin safety property of every optional knob."""
        a = run_tls_comparison("gzip", num_tasks=8, seed=1)
        b = run_tls_comparison("gzip", num_tasks=8, seed=1, trace=None,
                               trace_store=None)
        assert a.cycles == b.cycles


class TestGridReplayDeterminism:
    def test_merged_artifacts_identical_across_jobs_and_copies(
        self, tmp_path
    ):
        """The acceptance criterion: same trace id ⇒ byte-identical
        merged JSON at jobs=1 and jobs=4, from two stores that each
        ingested the same logical traces."""
        ids = {}
        for copy in ("a", "b"):
            store = TraceStore(tmp_path / copy)
            ids[copy] = {
                "tm": ingest_tm(
                    store, "mc", num_threads=2, txns_per_thread=3
                ).trace_id,
                "tls": ingest_tls(store, "gzip", num_tasks=10).trace_id,
                "checkpoint": ingest_checkpoint(
                    store, "predictor", num_epochs=10
                ).trace_id,
            }
        assert ids["a"] == ids["b"]

        outputs = set()
        for copy in ("a", "b"):
            directory = str(tmp_path / copy)
            points = [
                tm_point("mc", trace=ids[copy]["tm"], trace_store=directory),
                tls_point("gzip", trace=ids[copy]["tls"],
                          trace_store=directory),
                checkpoint_point("predictor", trace=ids[copy]["checkpoint"],
                                 trace_store=directory),
            ]
            for jobs in (1, 4):
                outputs.add(GridRunner(jobs=jobs).run(points).to_json())
        # Point keys embed the store path, so compare within each copy,
        # then strip the path to compare across copies.
        assert len(outputs) == 2  # one per store path, not one per jobs
        normalized = {
            text.replace(str(tmp_path / "a"), "S")
            .replace(str(tmp_path / "b"), "S")
            for text in outputs
        }
        assert len(normalized) == 1

    def test_trace_knobs_are_cache_key_visible(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        trace_id = ingest_tls(store, "gzip", num_tasks=10).trace_id
        plain = tls_point("gzip")
        replayed = tls_point(
            "gzip", trace=trace_id, trace_store=str(tmp_path / "store")
        )
        assert plain.key != replayed.key
        assert "trace=" in replayed.key


class TestObsCounters:
    def test_replay_position_reaches_the_metrics(self, tmp_path):
        from repro.obs import Observability

        store = TraceStore(tmp_path)
        result = ingest_tls(store, "gzip", num_tasks=10)
        obs = Observability()
        run_tls_comparison(
            "gzip", trace=result.trace_id, trace_store=store, obs=obs
        )
        counters = obs.metrics.snapshot()["counters"]
        assert counters["trace.records_replayed"] == result.num_records
        assert counters["trace.bytes_streamed"] == result.encoded_bytes
