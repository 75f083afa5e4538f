"""Hypothesis property tests for the hot-path fast lanes.

The PR's batching and memoisation layers are only admissible because
they are *strictly semantics-preserving*; these properties pin that:

* ``Signature.add_many`` (and the ``flat_mask_many`` batch encode under
  it) must be bit-identical to a sequential ``add`` loop, across every
  Table 8 configuration and both address granularities;
* :class:`~repro.core.decode.CachedDecoder` must return exactly what the
  uncached :class:`~repro.core.decode.DeltaDecoder` computes, including
  across cache-eviction boundaries (exercised with a deliberately tiny
  capacity);
* the three mask kernels (``flat_mask``, ``flat_mask_many`` and the
  unmemoised ``flat_masks``), which share one fused encoder, must equal
  the spec-level mask built from ``SignatureConfig.encode`` under the
  identity, the Table 5 and random permutations, and ``flat_masks`` must
  leave the memo untouched.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decode import CachedDecoder, DeltaDecoder
from repro.core.permutation import BitPermutation
from repro.core.signature import Signature
from repro.core.signature_config import TABLE8_CHUNKS, table8_config
from repro.mem.address import Granularity

# Every Table 8 chunk layout at both granularities.  Built once: config
# construction precomputes layouts and each carries its own bounded
# address-encode memo, so reusing instances also exercises memo reuse.
ALL_CONFIGS = [
    table8_config(name, granularity)
    for name in sorted(TABLE8_CHUNKS)
    for granularity in (Granularity.LINE, Granularity.WORD)
]

configs = st.sampled_from(ALL_CONFIGS)
# Wide enough for 30-bit word addresses; masked per-config in the tests.
raw_addresses = st.integers(min_value=0, max_value=(1 << 30) - 1)
address_lists = st.lists(raw_addresses, max_size=48)


def _mask_for(config):
    return (1 << config.granularity.address_bits) - 1


@settings(max_examples=60, deadline=None)
@given(configs, address_lists)
def test_add_many_matches_sequential_add(config, raw):
    """Batch insertion is bit-identical to the per-address loop."""
    mask = _mask_for(config)
    address_list = [address & mask for address in raw]

    sequential = Signature(config)
    for address in address_list:
        sequential.add(address)

    batched = Signature(config)
    batched.add_many(address_list)

    assert batched == sequential
    assert batched.to_flat_int() == sequential.to_flat_int()
    assert batched.fields == sequential.fields


@settings(max_examples=60, deadline=None)
@given(configs, address_lists)
def test_flat_mask_many_is_or_of_flat_masks(config, raw):
    """The batch encode kernel equals the OR-fold of single encodes."""
    mask = _mask_for(config)
    address_list = [address & mask for address in raw]
    folded = 0
    for address in address_list:
        folded |= config.flat_mask(address)
    assert config.flat_mask_many(address_list) == folded


@settings(max_examples=60, deadline=None)
@given(configs, st.lists(address_lists, max_size=6), st.integers(0, 2**32))
def test_cached_decoder_matches_delta_decoder(config, raw_sets, salt):
    """The decode memo never changes a bitmask, whatever the fill."""
    mask = _mask_for(config)
    reference = DeltaDecoder(config, num_sets=64)
    cached = CachedDecoder(config, num_sets=64)
    for raw in raw_sets:
        signature = Signature(config)
        signature.add_many([address & mask for address in raw])
        expected = reference.decode(signature)
        # Twice: the first call may populate the memo, the second hits it.
        assert cached.decode(signature) == expected
        assert cached.decode(signature) == expected


@pytest.mark.parametrize("name", ["S14", "S5", "S21"])
def test_cached_decoder_exact_across_eviction_boundaries(name):
    """A capacity-2 memo keeps returning exact masks while it thrashes."""
    config = table8_config(name, Granularity.LINE)
    reference = DeltaDecoder(config, num_sets=64)
    cached = CachedDecoder(config, num_sets=64, capacity=2)
    cache = cached._decode_cache
    evictions_before = cache.evictions

    rng = random.Random(0xB0B + len(name))
    signatures = []
    for _ in range(8):
        signature = Signature(config)
        signature.add_many(
            [rng.randrange(1 << 26) for _ in range(rng.randrange(1, 24))]
        )
        signatures.append(signature)

    # Cycle through far more distinct signatures than the memo can hold,
    # revisiting each several times so hits, misses, and evictions all
    # interleave.
    for _ in range(3):
        for signature in signatures:
            assert cached.decode(signature) == reference.decode(signature)

    assert cache.evictions > evictions_before
    assert len(cache) <= 2


def _reference_mask(config, address):
    """The spec-level mask: one bit per field, at the chunk ``encode``
    gives."""
    mask = 0
    for offset, chunk in zip(config.layout.field_offsets, config.encode(address)):
        mask |= 1 << (offset + chunk)
    return mask


def _kernel_configs(name):
    """One Table 8 layout at both granularities under the identity, the
    Table 5 and a random permutation, each with a cold memo."""
    configs = []
    for granularity in (Granularity.LINE, Granularity.WORD):
        bits = granularity.address_bits
        configs += [
            table8_config(name, granularity),
            table8_config(name, granularity, use_paper_permutation=True),
            table8_config(
                name,
                granularity,
                permutation=BitPermutation.shuffled(
                    bits, random.Random(f"{name}/{granularity.value}")
                ),
            ),
        ]
    return configs


@pytest.mark.parametrize("name", sorted(TABLE8_CHUNKS))
@settings(max_examples=8, deadline=None)
@given(address_lists)
def test_mask_kernels_match_the_encode_reference(name, raw):
    """Memo misses, memo hits, the batch OR and the unmemoised batch all
    equal the mask built from ``encode``."""
    for config in _kernel_configs(name):
        top = _mask_for(config)
        address_list = [address & top for address in raw] + [0, top]
        expected = [_reference_mask(config, a) for a in address_list]
        folded = 0
        for mask in expected:
            folded |= mask
        assert config.flat_masks(address_list) == expected
        # Misses first, then hits, on each memo path.
        assert [config.flat_mask(a) for a in address_list] == expected
        assert [config.flat_mask(a) for a in address_list] == expected
        twin = config.with_permutation(config.permutation)
        assert twin.flat_mask_many(address_list) == folded
        assert twin.flat_mask_many(address_list) == folded


@settings(max_examples=40, deadline=None)
@given(configs, address_lists, address_lists)
def test_flat_masks_leaves_the_memo_untouched(config, cached_raw, raw):
    """``flat_masks`` records no entry, hit or miss, whatever the memo
    already holds."""
    top = _mask_for(config)
    for address in cached_raw:
        config.flat_mask(address & top)
    cache = config._flat_mask_cache
    before = (cache.hits, cache.misses, cache.evictions, dict(cache._data))
    address_list = [address & top for address in cached_raw + raw]
    assert config.flat_masks(address_list) == [
        _reference_mask(config, address) for address in address_list
    ]
    assert (cache.hits, cache.misses, cache.evictions, dict(cache._data)) == (
        before
    )
