"""Structured observability: metrics registry + JSONL event tracing.

The simulators' headline numbers are *event* statistics — squash causes,
false-positive rates, commit-bandwidth breakdowns — so this package makes
the event stream itself a first-class output.  Two halves:

* :mod:`repro.obs.metrics` — a registry of counters, histograms, and
  cycle timers with near-zero overhead when absent (hot paths hold plain
  ``None`` and skip the call entirely);
* :mod:`repro.obs.tracer` — a structured event tracer that feeds an
  optional JSONL sink and always maintains a small deterministic summary
  (event counts, bus bytes per scheme and category) that reconciles
  exactly against :class:`~repro.coherence.bus.BandwidthBreakdown`.

Everything here is strictly read-only with respect to simulation state:
enabling observability never changes a squash, a cycle count, or a byte
of runner output (tests pin this).  All recorded quantities are
*simulated* (cycles, bytes, event counts) — never wall-clock — so traces
and metric snapshots are byte-identical across runs and worker counts.
"""

from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    Timer,
    merge_snapshots,
)
from repro.obs.tracer import EventTracer, JsonlWriter

__all__ = [
    "Counter",
    "EventTracer",
    "Histogram",
    "JsonlWriter",
    "MetricsRegistry",
    "Observability",
    "Timer",
    "merge_snapshots",
    "record_codec_metrics",
]


def record_codec_metrics(metrics: "MetricsRegistry"):
    """Copy the process's codec path counters into ``metrics``.

    The codec seam (:mod:`repro.core.backend.codec`) counts which path
    served each decode/RLE/expansion compute — ``decode_vectorised``,
    ``rle_vectorised``, ``rle_decode_vectorised``,
    ``expansion_vectorised``, or the scalar ``fallback``.  Like the memo
    counters, they stay out of the default metrics snapshots (golden
    runs pin ``metrics.json`` byte for byte); explicit consumers call
    this to materialise them as ``codec.<path>`` counters.

    Each counter is *set* to the current aggregate (gauge semantics, so
    repeated calls refresh rather than double-count).  Returns the raw
    :func:`repro.core.backend.codec.codec_stats` mapping.
    """
    from repro.core.backend.codec import codec_stats

    stats = codec_stats()
    for path, count in stats.items():
        metrics.counter(f"codec.{path}").value = count
    return stats


class Observability:
    """A metrics registry and an event tracer, bundled for the simulators.

    Systems accept ``obs: Optional[Observability]``; passing ``None``
    (the default everywhere) leaves every hook a ``None`` check on the
    hot path.  Either half may be omitted::

        obs = Observability()                       # metrics + summary trace
        obs = Observability(tracer=EventTracer(sink=writer.write))
    """

    __slots__ = ("metrics", "tracer")

    def __init__(
        self,
        metrics: "MetricsRegistry | None" = None,
        tracer: "EventTracer | None" = None,
    ) -> None:
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.tracer = EventTracer() if tracer is None else tracer
