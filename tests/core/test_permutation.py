"""Tests for address bit permutations."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.permutation import BitPermutation
from repro.core.signature_config import TLS_PERMUTATION_SPEC, TM_PERMUTATION_SPEC
from repro.errors import ConfigurationError


def permutations(width: int):
    return st.permutations(list(range(width)))


class TestConstruction:
    def test_identity(self):
        perm = BitPermutation.identity(8)
        assert perm.is_identity()
        assert perm.apply(0xA5) == 0xA5

    def test_rejects_non_bijection(self):
        with pytest.raises(ConfigurationError):
            BitPermutation(3, [0, 0, 2])

    def test_rejects_wrong_length(self):
        with pytest.raises(ConfigurationError):
            BitPermutation(3, [0, 1])

    def test_from_spec_with_ranges(self):
        perm = BitPermutation.from_spec(6, [(1, 2), 0])
        # dest0 <- src1, dest1 <- src2, dest2 <- src0, tail identity.
        assert perm.apply(0b000010) == 0b000001
        assert perm.apply(0b000001) == 0b000100
        assert perm.apply(0b100000) == 0b100000

    def test_from_spec_identity_tail(self):
        perm = BitPermutation.from_spec(8, [(0, 3)])
        assert perm.is_identity()

    def test_from_spec_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            BitPermutation.from_spec(4, [0, 0])

    def test_from_spec_rejects_non_identity_tail(self):
        # Source bit 3 is named in the spec but its destination is in the
        # tail — contradiction.
        with pytest.raises(ConfigurationError):
            BitPermutation.from_spec(4, [3, 1])


class TestPaperPermutations:
    def test_tm_spec_is_valid_over_26_bits(self):
        perm = BitPermutation.from_spec(26, TM_PERMUTATION_SPEC)
        assert sorted(perm.sources) == list(range(26))

    def test_tls_spec_is_valid_over_30_bits(self):
        perm = BitPermutation.from_spec(30, TLS_PERMUTATION_SPEC)
        assert sorted(perm.sources) == list(range(30))

    def test_tm_spec_keeps_low_bits_in_place(self):
        # The cache-index bits (0..6 of the line address for 128 sets)
        # stay inside the first 10-bit chunk — the delta-exactness
        # property the architecture requires.
        perm = BitPermutation.from_spec(26, TM_PERMUTATION_SPEC)
        for bit in range(7):
            assert perm.destination_of(bit) < 10


class TestApply:
    @given(permutations(12), st.integers(min_value=0, max_value=(1 << 12) - 1))
    def test_apply_is_bijective(self, sources, address):
        perm = BitPermutation(12, sources)
        inverse = BitPermutation(12, [perm.destination_of(b) for b in range(12)])
        assert inverse.apply(perm.apply(address)) == address

    @given(permutations(12))
    def test_popcount_preserved(self, sources):
        perm = BitPermutation(12, sources)
        value = 0b101010101010
        assert bin(perm.apply(value)).count("1") == bin(value).count("1")

    @given(
        st.integers(min_value=1, max_value=32).flatmap(permutations),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_byte_table_fast_path_matches_per_bit(self, sources, address):
        # Any width, including ones that end mid-byte; address bits above
        # the width are dropped.
        perm = BitPermutation(len(sources), sources)
        expected = 0
        for dest, src in enumerate(perm.sources):
            expected |= ((address >> src) & 1) << dest
        assert perm.apply(address) == expected

    def test_destination_of_out_of_range(self):
        with pytest.raises(IndexError):
            BitPermutation.identity(4).destination_of(4)


class TestShuffled:
    def test_deterministic_for_seed(self):
        assert BitPermutation.shuffled(16, random.Random(3)) == (
            BitPermutation.shuffled(16, random.Random(3))
        )

    def test_different_seeds_differ(self):
        a = BitPermutation.shuffled(26, random.Random(1))
        b = BitPermutation.shuffled(26, random.Random(2))
        assert a != b
