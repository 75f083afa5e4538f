"""Tests for the bus: bandwidth accounting and commit arbitration."""

from repro.coherence.bus import Bus
from repro.coherence.message import BandwidthCategory, MessageKind


class TestAccounting:
    def test_record_returns_size_and_accumulates(self):
        bus = Bus()
        size = bus.record(MessageKind.FILL)
        assert size == 76
        assert bus.bandwidth.category_bytes(BandwidthCategory.FILL) == 76
        assert bus.bandwidth.total_bytes == 76

    def test_commit_traffic_tracked_separately(self):
        bus = Bus()
        bus.record(MessageKind.INVALIDATION, is_commit_traffic=True)
        bus.record(MessageKind.INVALIDATION)
        assert bus.bandwidth.commit_bytes == 12
        assert bus.bandwidth.category_bytes(BandwidthCategory.INV) == 24

    def test_message_counts(self):
        bus = Bus()
        bus.record(MessageKind.WRITEBACK)
        bus.record(MessageKind.WRITEBACK)
        assert bus.bandwidth.message_counts[MessageKind.WRITEBACK] == 2


class TestCommitArbitration:
    def test_commits_serialise(self):
        bus = Bus(commit_occupancy_cycles=10, bytes_per_cycle=16)
        first_end = bus.acquire_commit(100, packet_bytes=160)
        # 160 bytes / 16 per cycle = 10 transfer + 10 occupancy.
        assert first_end == 120
        second_end = bus.acquire_commit(105, packet_bytes=0)
        assert second_end == 130  # starts only after the first finishes

    def test_idle_bus_grants_at_request_time(self):
        bus = Bus(commit_occupancy_cycles=5, bytes_per_cycle=16)
        assert bus.acquire_commit(1000, 16) == 1006

    def test_reset(self):
        bus = Bus()
        bus.record(MessageKind.FILL)
        bus.acquire_commit(50, 0)
        bus.reset()
        assert bus.bandwidth.total_bytes == 0
        assert bus.acquire_commit(0, 0) == bus.commit_occupancy_cycles
