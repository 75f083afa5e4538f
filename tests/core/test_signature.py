"""Tests for signatures and the primitive bulk operations of Table 1.

The hypothesis properties pin the paper's algebra:

* no false negatives: ``a in H(A)`` for every ``a ∈ A``;
* union homomorphism: ``H(A ∪ B) = H(A) ∪ H(B)``;
* intersection superset: ``A ∩ B ⊆ H⁻¹(H(A) ∩ H(B))``;
* commit-by-clear leaves an empty register.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.signature import Signature
from repro.core.signature_config import (
    SignatureConfig,
    default_tls_config,
    default_tm_config,
    table8_config,
)
from repro.errors import ConfigurationError
from repro.mem.address import Granularity

LINE_ADDRESSES = st.integers(min_value=0, max_value=(1 << 26) - 1)
ADDRESS_SETS = st.sets(LINE_ADDRESSES, max_size=80)

CONFIGS = st.sampled_from(
    [
        default_tm_config(),
        table8_config("S1"),
        table8_config("S9"),
        table8_config("S20"),
        table8_config("S23"),
        SignatureConfig.make((4, 4), Granularity.LINE, name="tiny"),
    ]
)


class TestBasics:
    def test_fresh_signature_is_empty(self, tm_config):
        assert Signature(tm_config).is_empty()

    def test_add_makes_non_empty(self, tm_config):
        signature = Signature(tm_config)
        signature.add(42)
        assert not signature.is_empty()

    def test_membership_after_add(self, tm_config):
        signature = Signature(tm_config)
        signature.add(0x123456)
        assert 0x123456 in signature

    def test_clear_is_commit(self, tm_config):
        signature = Signature(tm_config)
        signature.add(1)
        signature.add(2)
        signature.clear()
        assert signature.is_empty()
        assert 1 not in signature

    def test_incompatible_configs_rejected(self, tm_config, tls_config):
        with pytest.raises(ConfigurationError):
            Signature(tm_config) & Signature(tls_config)

    def test_copy_is_independent(self, tm_config):
        signature = Signature(tm_config)
        signature.add(1)
        duplicate = signature.copy()
        duplicate.add(99)
        assert signature != duplicate


class TestNoFalseNegatives:
    @settings(max_examples=60)
    @given(config=CONFIGS, addresses=ADDRESS_SETS)
    def test_every_inserted_address_is_member(self, config, addresses):
        signature = Signature.from_addresses(config, addresses)
        for address in addresses:
            assert address in signature

    @settings(max_examples=30)
    @given(addresses=ADDRESS_SETS)
    def test_word_granularity_no_false_negatives(self, addresses):
        config = default_tls_config()
        word_addresses = {a & ((1 << 30) - 1) for a in addresses}
        signature = Signature.from_addresses(config, word_addresses)
        for address in word_addresses:
            assert address in signature


class TestAlgebra:
    @settings(max_examples=40)
    @given(config=CONFIGS, first=ADDRESS_SETS, second=ADDRESS_SETS)
    def test_union_homomorphism(self, config, first, second):
        union = Signature.from_addresses(config, first | second)
        combined = Signature.from_addresses(config, first) | (
            Signature.from_addresses(config, second)
        )
        assert union == combined

    @settings(max_examples=40)
    @given(config=CONFIGS, first=ADDRESS_SETS, second=ADDRESS_SETS)
    def test_intersection_is_superset_of_exact(self, config, first, second):
        intersection = Signature.from_addresses(config, first) & (
            Signature.from_addresses(config, second)
        )
        for address in first & second:
            assert address in intersection

    @settings(max_examples=40)
    @given(config=CONFIGS, first=ADDRESS_SETS, second=ADDRESS_SETS)
    def test_intersects_agrees_with_intersection_emptiness(
        self, config, first, second
    ):
        a = Signature.from_addresses(config, first)
        b = Signature.from_addresses(config, second)
        assert a.intersects(b) == (not (a & b).is_empty())

    @settings(max_examples=40)
    @given(config=CONFIGS, first=ADDRESS_SETS, second=ADDRESS_SETS)
    def test_union_update_matches_operator(self, config, first, second):
        target = Signature.from_addresses(config, first)
        target.union_update(Signature.from_addresses(config, second))
        assert target == Signature.from_addresses(config, first | second)

    @given(config=CONFIGS, addresses=ADDRESS_SETS)
    def test_self_intersection_is_identity(self, config, addresses):
        signature = Signature.from_addresses(config, addresses)
        assert (signature & signature) == signature


class TestWireFormat:
    @settings(max_examples=40)
    @given(config=CONFIGS, addresses=ADDRESS_SETS)
    def test_flat_round_trip(self, config, addresses):
        signature = Signature.from_addresses(config, addresses)
        assert Signature.from_flat_int(config, signature.to_flat_int()) == signature

    def test_flat_rejects_oversized(self, small_config):
        with pytest.raises(ConfigurationError):
            Signature.from_flat_int(small_config, 1 << small_config.size_bits)

    @given(config=CONFIGS, addresses=ADDRESS_SETS)
    def test_popcount_matches_flat(self, config, addresses):
        signature = Signature.from_addresses(config, addresses)
        assert signature.popcount() == bin(signature.to_flat_int()).count("1")


class TestFieldValues:
    def test_field_values_are_exact_chunk_sets(self, tm_config):
        addresses = [0x1, 0x2, 0x40001]
        signature = Signature.from_addresses(tm_config, addresses)
        expected = {tm_config.encode(a)[0] for a in addresses}
        assert signature.field_values(0) == expected
