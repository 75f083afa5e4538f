"""Tests for cache geometry."""

import pytest

from repro.cache.geometry import CacheGeometry, TLS_L1_GEOMETRY, TM_L1_GEOMETRY
from repro.errors import ConfigurationError


class TestTable5Geometries:
    def test_tls_l1_has_64_sets(self):
        assert TLS_L1_GEOMETRY.num_sets == 64

    def test_tm_l1_has_128_sets(self):
        assert TM_L1_GEOMETRY.num_sets == 128


class TestValidation:
    def test_rejects_non_64_byte_lines(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(16 * 1024, 4, line_bytes=32)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(1000, 4)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigurationError):
            CacheGeometry(3 * 4 * 64, 4)

    def test_set_index_uses_low_bits(self):
        geometry = CacheGeometry(8 * 1024, 2)  # 64 sets
        assert geometry.set_index(0x1234) == 0x1234 & 63
