"""Broadcast bus: commit arbitration plus bandwidth accounting.

Commits in a lazy scheme must be serialised — "it first obtains permission
to commit (e.g. gaining ownership of the bus)" (Section 4.1).  The
:class:`Bus` grants commit slots in request order and never overlaps them,
which is all the paper requires ("Bulk is not concerned about how the
system handles commit races").

Every message placed on the bus is accounted into the Figure 13 categories;
commit-time invalidation traffic is additionally accumulated separately so
Figure 14's commit-bandwidth comparison can be produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

from repro.coherence.message import (
    CATEGORY_OF_KIND,
    BandwidthCategory,
    MessageKind,
    message_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import EventTracer


@dataclass
class BandwidthBreakdown:
    """Bytes transferred, split into Figure 13's categories."""

    by_category: Dict[BandwidthCategory, int] = field(
        default_factory=lambda: {category: 0 for category in BandwidthCategory}
    )
    #: Subset of INV bytes that was commit traffic (Figure 14's metric).
    commit_bytes: int = 0
    #: Message count per kind, for characterisation output.
    message_counts: Dict[MessageKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in MessageKind}
    )

    @property
    def total_bytes(self) -> int:
        """All bytes across categories."""
        return sum(self.by_category.values())

    def category_bytes(self, category: BandwidthCategory) -> int:
        """Bytes in one category."""
        return self.by_category[category]


class Bus:
    """A shared broadcast bus with serialised commit slots.

    Parameters
    ----------
    commit_occupancy_cycles:
        Fixed cycles a commit holds the bus, on top of the transfer time
        of its packet.
    bytes_per_cycle:
        Bus transfer rate used to convert packet sizes into occupancy.
    metrics / tracer:
        Optional observability hooks.  With metrics, every message also
        increments ``bus.bytes.<Category>`` / ``bus.msgs.<kind>`` (and
        ``bus.commit_bytes`` for commit traffic); with a tracer, every
        message emits one ``bus.msg`` event.  Both are fed from the same
        accounting statement as :class:`BandwidthBreakdown`, which is
        what makes trace-vs-breakdown reconciliation exact.
    """

    def __init__(
        self,
        commit_occupancy_cycles: int = 10,
        bytes_per_cycle: int = 16,
        metrics: "Optional[MetricsRegistry]" = None,
        tracer: "Optional[EventTracer]" = None,
    ) -> None:
        self.commit_occupancy_cycles = commit_occupancy_cycles
        self.bytes_per_cycle = bytes_per_cycle
        self.bandwidth = BandwidthBreakdown()
        self._bus_free_at = 0
        self._tracer = tracer
        if metrics is not None:
            self._byte_counters: Optional[Dict[BandwidthCategory, object]] = {
                category: metrics.counter(f"bus.bytes.{category.value}")
                for category in BandwidthCategory
            }
            self._msg_counters = {
                kind: metrics.counter(f"bus.msgs.{kind.value}")
                for kind in MessageKind
            }
            self._commit_counter = metrics.counter("bus.commit_bytes")
        else:
            self._byte_counters = None
            self._msg_counters = None
            self._commit_counter = None

    # ------------------------------------------------------------------
    # Bandwidth accounting
    # ------------------------------------------------------------------

    def record(
        self,
        kind: MessageKind,
        payload_bytes: int = 0,
        is_commit_traffic: bool = False,
        now: Optional[int] = None,
        port: Optional[int] = None,
    ) -> int:
        """Account one message; returns its size in bytes.

        ``now`` (the sender's clock) and ``port`` (the sender's
        processor id) describe *when and from where* the message entered
        the interconnect.  The synchronous bus ignores both — its
        transfers are instantaneous broadcasts — but the timed model
        (:class:`~repro.interconnect.timed.TimedBus`) uses them to drive
        the transfer pipeline and per-port contention accounting.  Call
        sites that have no natural clock may omit them.
        """
        size = message_bytes(kind, payload_bytes)
        category = CATEGORY_OF_KIND[kind]
        self.bandwidth.by_category[category] += size
        self.bandwidth.message_counts[kind] += 1
        if is_commit_traffic:
            self.bandwidth.commit_bytes += size
        if self._byte_counters is not None:
            self._byte_counters[category].inc(size)
            self._msg_counters[kind].inc()
            if is_commit_traffic:
                self._commit_counter.inc(size)
        if self._tracer is not None:
            self._tracer.emit(
                "bus.msg",
                msg=kind.value,
                category=category.value,
                bytes=size,
                commit=is_commit_traffic,
            )
        return size

    # ------------------------------------------------------------------
    # Commit arbitration
    # ------------------------------------------------------------------

    def acquire_commit(
        self, request_time: int, packet_bytes: int, port: int = 0
    ) -> int:
        """Serialise a commit: returns the cycle at which it completes.

        The commit occupies the bus from ``max(request_time, bus free)``
        for its transfer time plus the fixed occupancy.  ``port``
        identifies the requester; the synchronous bus grants instantly
        regardless, the timed model arbitrates and accounts per port.
        """
        start = max(request_time, self._bus_free_at)
        transfer = -(-packet_bytes // self.bytes_per_cycle)  # ceil division
        end = start + self.commit_occupancy_cycles + transfer
        self._bus_free_at = end
        return end

    def reset(self) -> None:
        """Clear accounting and arbitration state."""
        self.bandwidth = BandwidthBreakdown()
        self._bus_free_at = 0
