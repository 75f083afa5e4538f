"""Hypothesis property tests for the hot-path memos.

The memos are only admissible because they are *strictly
semantics-preserving*; these properties pin that:

* the memoised :meth:`~repro.core.decode.DeltaDecoder.decode` must
  return exactly what the unmemoised ``decode_scalar`` computes, across
  every Table 8 configuration and both address granularities, and
  across eviction boundaries (exercised with a deliberately tiny memo);
* a :class:`~repro.core.memo.Memo` evicts its oldest entry and counts
  hits and misses per label;
* the two mask kernels (the memoised ``flat_mask`` and the unmemoised
  ``flat_masks``), which share one fused encoder, must equal the
  spec-level mask built from ``SignatureConfig.encode`` under the
  identity, the Table 5 and random permutations, and ``flat_masks``
  must leave the memo untouched.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decode import DeltaDecoder
from repro.core.memo import Memo, memo_stats
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
@given(configs, st.lists(address_lists, max_size=6), st.integers(0, 2**32))
def test_cached_decoder_matches_delta_decoder(config, raw_sets, salt):
    """The decode memo never changes a bitmask, whatever the fill: the
    memoised ``decode`` equals the unmemoised ``decode_scalar``."""
    mask = _mask_for(config)
    decoder = DeltaDecoder(config, num_sets=64)
    for raw in raw_sets:
        signature = Signature.from_addresses(
            config, [address & mask for address in raw]
        )
        expected = decoder.decode_scalar(signature)
        # Twice: the first call may populate the memo, the second hits it.
        assert decoder.decode(signature) == expected
        assert decoder.decode(signature) == expected


@pytest.mark.parametrize("name", ["S14", "S5", "S21"])
def test_cached_decoder_exact_across_eviction_boundaries(name):
    """A capacity-2 memo keeps returning exact masks while it thrashes."""
    config = table8_config(name, Granularity.LINE)
    decoder = DeltaDecoder(config, num_sets=64)
    memo = decoder._memo = Memo("decode", 2)

    rng = random.Random(0xB0B + len(name))
    signatures = [
        Signature.from_addresses(
            config,
            [rng.randrange(1 << 26) for _ in range(rng.randrange(1, 24))],
        )
        for _ in range(8)
    ]
    flats = {signature.to_flat_int() for signature in signatures}
    assert len(flats) > 2

    # Cycle through far more distinct signatures than the memo can hold,
    # revisiting each several times so hits, misses, and evictions all
    # interleave.
    for _ in range(3):
        for signature in signatures:
            assert decoder.decode(signature) == decoder.decode_scalar(signature)

    assert len(memo) == 2
    assert signatures[-1].to_flat_int() in memo._data


def test_memo_evicts_its_oldest_entry_and_shares_counts_per_label():
    """A full memo drops the entry inserted first, whatever was hit
    since; every memo of a label feeds one hit/miss pair."""
    label = "test-memo-eviction"
    first, second = Memo(label, 2), Memo(label, 2)
    hits, misses = first.counts
    first.put("a", 1)
    first.put("b", 2)
    assert first.get("a") == 1  # a hit does not make "a" the newest
    first.put("c", 3)
    assert list(first._data) == ["b", "c"]
    assert first.get("a") is None
    assert second.get("a") is None
    counts = {"hits": hits + 1, "misses": misses + 2}
    assert memo_stats(label) == {label: counts}
    assert memo_stats()[label] == counts
    with pytest.raises(ValueError):
        Memo(label, 0)


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
    """Memo misses, memo hits and the unmemoised batch all equal the
    mask built from ``encode``."""
    for config in _kernel_configs(name):
        top = _mask_for(config)
        address_list = [address & top for address in raw] + [0, top]
        expected = [_reference_mask(config, a) for a in address_list]
        assert config.flat_masks(address_list) == expected
        # Misses first, then hits.
        assert [config.flat_mask(a) for a in address_list] == expected
        assert [config.flat_mask(a) for a in address_list] == expected


@settings(max_examples=40, deadline=None)
@given(configs, address_lists, address_lists)
def test_flat_masks_leaves_the_memo_untouched(config, cached_raw, raw):
    """``flat_masks`` records no entry, hit or miss, whatever the memo
    already holds."""
    top = _mask_for(config)
    for address in cached_raw:
        config.flat_mask(address & top)
    memo = config._flat_mask_cache
    before = (list(memo.counts), list(memo._data.items()))
    address_list = [address & top for address in cached_raw + raw]
    assert config.flat_masks(address_list) == [
        _reference_mask(config, address) for address in address_list
    ]
    assert (list(memo.counts), list(memo._data.items())) == before
