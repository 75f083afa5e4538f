"""Tests for the set-associative cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.geometry import CacheGeometry, TM_L1_GEOMETRY
from repro.cache.line import CacheLine
from repro.errors import ConfigurationError, SimulationError

LINE = tuple(range(16))


def tiny_cache():
    return Cache(CacheGeometry(4 * 2 * 64, 2))  # 4 sets, 2-way


class TestCacheLine:
    def test_requires_16_words(self):
        with pytest.raises(ConfigurationError):
            CacheLine(0, (0,) * 15)

    def test_write_word_dirties(self):
        line = CacheLine(0, LINE)
        assert not line.dirty
        line.write_word(5, 999)
        assert line.dirty
        assert line.read_word(5) == 999

    def test_word_values_truncate(self):
        line = CacheLine(0, LINE)
        line.write_word(0, 0x1_0000_0003)
        assert line.read_word(0) == 3

    def test_snapshot_is_immutable_copy(self):
        line = CacheLine(0, LINE)
        snapshot = line.snapshot_words()
        line.write_word(0, 42)
        assert snapshot[0] == 0


class TestFillAndLookup:
    def test_miss_then_hit(self):
        cache = tiny_cache()
        assert cache.lookup(5) is None
        cache.fill(5, LINE)
        assert cache.lookup(5) is not None

    def test_double_fill_rejected(self):
        cache = tiny_cache()
        cache.fill(5, LINE)
        with pytest.raises(SimulationError):
            cache.fill(5, LINE)

    def test_lru_eviction(self):
        cache = tiny_cache()
        # Lines 0, 4, 8 all map to set 0 in a 4-set cache.
        cache.fill(0, LINE)
        cache.fill(4, LINE)
        cache.lookup(0)  # touch 0: now 4 is LRU
        victim = cache.fill(8, LINE)
        assert victim is not None and victim.line_address == 4

    def test_dirty_eviction_counted(self):
        """The caller gets the dirty victim back: where its data goes is
        the layer above's decision."""
        cache = tiny_cache()
        cache.fill(0, LINE, dirty=True)
        assert cache.fill(4, LINE) is None
        victim = cache.fill(8, LINE)
        assert victim is not None and victim.line_address == 0
        assert victim.dirty


class TestInvalidation:
    def test_invalidate_present_line(self):
        cache = tiny_cache()
        cache.fill(3, LINE)
        assert cache.invalidate(3) is not None
        assert cache.lookup(3) is None

    def test_invalidate_absent_line(self):
        cache = tiny_cache()
        assert cache.invalidate(3) is None

    def test_clean_clears_dirty_bit(self):
        cache = tiny_cache()
        cache.fill(3, LINE, dirty=True)
        cache.clean(3)
        line = cache.lookup(3)
        assert line is not None and not line.dirty

    def test_clean_absent_raises(self):
        with pytest.raises(SimulationError):
            tiny_cache().clean(3)


class TestIteration:
    def test_lines_in_set_snapshot_allows_invalidation(self):
        cache = tiny_cache()
        cache.fill(0, LINE)
        cache.fill(4, LINE)
        for line in cache.lines_in_set(0):
            cache.invalidate(line.line_address)
        assert cache.lines_in_set(0) == []

    def test_dirty_lines_in_set(self):
        cache = tiny_cache()
        cache.fill(0, LINE, dirty=True)
        cache.fill(4, LINE, dirty=False)
        dirty = cache.dirty_lines_in_set(0)
        assert [line.line_address for line in dirty] == [0]


class TestCapacity:
    @settings(max_examples=20)
    @given(
        line_addresses=st.lists(
            st.integers(min_value=0, max_value=(1 << 26) - 1),
            min_size=1,
            max_size=800,
            unique=True,
        )
    )
    def test_never_exceeds_capacity(self, line_addresses):
        cache = Cache(TM_L1_GEOMETRY)
        for line_address in line_addresses:
            cache.fill(line_address, LINE)
        capacity = TM_L1_GEOMETRY.num_sets * TM_L1_GEOMETRY.associativity
        assert cache.valid_line_count() <= capacity
        for set_index in range(TM_L1_GEOMETRY.num_sets):
            assert len(cache.lines_in_set(set_index)) <= (
                TM_L1_GEOMETRY.associativity
            )

    @settings(max_examples=20)
    @given(
        line_addresses=st.lists(
            st.integers(min_value=0, max_value=255),
            min_size=1,
            max_size=200,
        )
    )
    def test_most_recent_fill_always_present(self, line_addresses):
        cache = tiny_cache()
        for line_address in line_addresses:
            if cache.lookup(line_address) is None:
                cache.fill(line_address, LINE)
            assert cache.lookup(line_address, touch=False) is not None
