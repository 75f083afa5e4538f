"""Counters, histograms, and cycle timers behind a named registry.

Design constraints, in order:

1. **Determinism.**  Snapshots feed the parallel runner's byte-identical
   merge guarantee, so instruments only ever record simulated quantities
   (cycles, bytes, counts) and snapshots list names in sorted order.
   Nothing here reads a wall clock.
2. **Near-zero overhead when disabled.**  The simulators hold ``None``
   instead of a registry when observability is off; every hot-path hook
   is a single ``is not None`` check.  When enabled, instruments are
   resolved once at construction time, so the per-event cost is one
   attribute increment — no name lookups on the hot path.
3. **Mergeability.**  Snapshots from independent runs (e.g. one per grid
   point, produced in separate worker processes) merge associatively and
   deterministically: counters and histogram moments add, extrema take
   min/max, and the merged snapshot is independent of merge order.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount


class Histogram:
    """Moment sketch of a value stream: count, total, min, max.

    Deliberately bucket-free — four integers merge exactly across worker
    processes, which fixed bucket boundaries also would, but percentile
    sketches would not.  The mean is derived at read time.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def observe(self, value: int) -> None:
        """Record one value."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, Any]:
        """The four moments as a JSON-able dictionary."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


class Timer(Histogram):
    """A histogram of *simulated-cycle* durations.

    Callers observe elapsed simulated cycles (``end_clock -
    start_clock``), never wall time — wall-clock timers would break the
    runner's byte-identical snapshot guarantee.
    """

    __slots__ = ()


class MetricsRegistry:
    """Named instruments, grouped by kind, snapshot in sorted order."""

    __slots__ = ("_counters", "_histograms", "_timers")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._timers: Dict[str, Timer] = {}

    # ------------------------------------------------------------------
    # Instrument resolution (get-or-create; done once, outside hot paths)
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name``, created on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def timer(self, name: str) -> Timer:
        """The cycle timer named ``name``, created on first use."""
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = Timer(name)
        return instrument

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Every instrument's state, names sorted, JSON-able."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
            "timers": {
                name: self._timers[name].snapshot()
                for name in sorted(self._timers)
            },
        }


def _merge_moments(
    into: Dict[str, Any], other: Dict[str, Any]
) -> Dict[str, Any]:
    merged = {
        "count": into["count"] + other["count"],
        "total": into["total"] + other["total"],
    }
    mins = [m for m in (into["min"], other["min"]) if m is not None]
    maxes = [m for m in (into["max"], other["max"]) if m is not None]
    merged["min"] = min(mins) if mins else None
    merged["max"] = max(maxes) if maxes else None
    return merged


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge registry snapshots into one, deterministically.

    Counters add; histogram/timer moments add with min/max extrema.  The
    result's keys are sorted, and because every operation is associative
    and commutative the merged snapshot does not depend on the order the
    inputs arrive in — though callers (the grid runner) still merge in
    canonical key order for clarity.
    """
    counters: Dict[str, int] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    timers: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for group, merged in (("histograms", histograms), ("timers", timers)):
            for name, moments in snapshot.get(group, {}).items():
                if name in merged:
                    merged[name] = _merge_moments(merged[name], moments)
                else:
                    merged[name] = dict(moments)
    return {
        "counters": {name: counters[name] for name in sorted(counters)},
        "histograms": {
            name: histograms[name] for name in sorted(histograms)
        },
        "timers": {name: timers[name] for name in sorted(timers)},
    }
