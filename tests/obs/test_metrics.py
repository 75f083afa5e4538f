"""Unit tests for the metrics registry and snapshot merging."""

import json

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    Timer,
    merge_snapshots,
)


class TestInstruments:
    def test_counter(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_histogram_moments(self):
        hist = Histogram("h")
        for value in (4, 2, 9):
            hist.observe(value)
        assert hist.snapshot() == {"count": 3, "total": 15, "min": 2, "max": 9}

    def test_empty_histogram(self):
        assert Histogram("h").snapshot() == {
            "count": 0, "total": 0, "min": None, "max": None,
        }

    def test_timer_is_a_histogram(self):
        timer = Timer("t")
        timer.observe(120)
        assert timer.snapshot()["total"] == 120


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.timer("t") is registry.timer("t")

    def test_snapshot_is_sorted_and_jsonable(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc(2)
        registry.histogram("h").observe(3)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "z"]
        json.dumps(snapshot)  # must not raise
        assert list(snapshot["histograms"]) == ["h"]


class TestMerge:
    def make(self, counter, values):
        registry = MetricsRegistry()
        registry.counter("c").inc(counter)
        for value in values:
            registry.histogram("h").observe(value)
            registry.timer("t").observe(value)
        return registry.snapshot()

    def test_merge_adds_counters_and_moments(self):
        merged = merge_snapshots([self.make(2, [1, 5]), self.make(3, [4])])
        assert merged["counters"]["c"] == 5
        assert merged["histograms"]["h"] == {
            "count": 3, "total": 10, "min": 1, "max": 5,
        }
        assert merged["timers"]["t"]["count"] == 3

    def test_merge_is_order_independent(self):
        parts = [self.make(1, [7]), self.make(2, []), self.make(4, [3, 9])]
        forward = json.dumps(merge_snapshots(parts), sort_keys=True)
        backward = json.dumps(merge_snapshots(reversed(parts)), sort_keys=True)
        assert forward == backward

    def test_merge_handles_disjoint_names(self):
        left = MetricsRegistry()
        left.counter("only.left").inc()
        right = MetricsRegistry()
        right.counter("only.right").inc(2)
        merged = merge_snapshots([left.snapshot(), right.snapshot()])
        assert merged["counters"] == {"only.left": 1, "only.right": 2}

    def test_merge_of_nothing_is_empty(self):
        assert merge_snapshots([]) == {
            "counters": {}, "histograms": {}, "timers": {},
        }
