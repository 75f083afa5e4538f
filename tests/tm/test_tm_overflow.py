"""Tests for overflow handling (Section 6.2.2) using a tiny cache."""

import pytest
from dataclasses import replace

from repro.cache.geometry import CacheGeometry
from repro.sim.trace import ThreadTrace, compute, load, store, tx_begin, tx_end
from repro.tm.bulk import BulkScheme
from repro.tm.lazy import LazyScheme
from repro.tm.params import TM_DEFAULTS, TmParams
from repro.tm.system import TmSystem
from repro.workloads.kernels import build_tm_workload

#: 4 sets x 2 ways = 8 lines: any transaction writing more than 2 lines
#: of one set overflows.
TINY = CacheGeometry(size_bytes=4 * 2 * 64, associativity=2)

#: A 2 KB, 4-way L1 (8 sets): enough pressure for the TM kernels, which
#: the 32 KB Table 5 L1 absorbs, to overflow.
PRESSURED = CacheGeometry(size_bytes=2 * 1024, associativity=4)


def overflowing_trace(tid=0):
    """Writes 5 lines of cache set 0, then reads them back."""
    lines = [(set0 * 4) << 6 for set0 in range(5)]  # line addrs 0,4,8,12,16
    events = [tx_begin()]
    for address in lines:
        events.append(store(address, address + 1))
    for address in lines:
        events.append(load(address))
    events.append(tx_end())
    return ThreadTrace(tid, events)


def tiny_params(**overrides):
    base = TmParams(geometry=TINY, num_processors=2)
    return replace(base, **overrides) if overrides else base


class TestOverflow:
    @pytest.mark.parametrize("scheme_cls", [LazyScheme, BulkScheme])
    def test_overflowed_transaction_still_commits_correctly(self, scheme_cls):
        result = TmSystem([overflowing_trace()], scheme_cls(), tiny_params()).run()
        assert result.stats.committed_transactions == 1
        for set0 in range(5):
            address = (set0 * 4) << 6
            assert result.memory.load(address >> 2) == address + 1

    @pytest.mark.parametrize("scheme_cls", [LazyScheme, BulkScheme])
    def test_overflow_accesses_recorded(self, scheme_cls):
        result = TmSystem([overflowing_trace()], scheme_cls(), tiny_params()).run()
        assert result.stats.overflow_area_accesses > 0
        assert result.stats.overflowed_transactions == 1

    def test_bulk_filters_more_overflow_lookups_than_lazy(self):
        """Table 7's Overflow column: Bulk's membership filter skips
        overflow-area searches on misses to addresses it never wrote;
        Lazy must search on every miss while overflowed."""
        def trace():
            events = [tx_begin()]
            for set0 in range(5):
                events.append(store((set0 * 4) << 6, 1))
            # Misses to lines the transaction never wrote:
            for i in range(20):
                events.append(load(0x100000 + i * 0x1000))
            events.append(tx_end())
            return [ThreadTrace(0, events)]

        lazy = TmSystem(trace(), LazyScheme(), tiny_params()).run()
        bulk = TmSystem(trace(), BulkScheme(), tiny_params()).run()
        assert bulk.stats.overflow_area_accesses < (
            lazy.stats.overflow_area_accesses
        )

    @pytest.mark.parametrize("app", ["cb", "sjbb2k"])
    def test_bulk_filters_overflow_lookups_under_cache_pressure(self, app):
        """Table 7's Overflow column on real kernels: Bulk's membership
        filter cuts overflow-area accesses well below Lazy's
        search-on-every-miss (the paper: ~4% on average)."""
        params = replace(TM_DEFAULTS, geometry=PRESSURED)
        traces = build_tm_workload(
            app, num_threads=8, txns_per_thread=5, seed=42
        )
        lazy = TmSystem(traces, LazyScheme(), params).run()
        bulk = TmSystem(traces, BulkScheme(), params).run()
        assert lazy.stats.overflow_area_accesses > 0
        assert bulk.stats.overflow_area_accesses < (
            0.7 * lazy.stats.overflow_area_accesses
        )

    def test_squash_deallocates_overflow_area(self):
        victim = overflowing_trace(0)
        writer = ThreadTrace(
            1, [compute(30), store(0, 99)]  # non-spec store hits victim's set
        )
        result = TmSystem(
            [victim, writer], BulkScheme(), tiny_params()
        ).run()
        assert result.stats.committed_transactions == 1
        assert result.stats.squashes >= 1
        # The victim eventually commits with its re-executed values.
        assert result.memory.load(0) == 1
