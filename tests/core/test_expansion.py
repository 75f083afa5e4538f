"""Tests for signature expansion over a cache (Section 3.3)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.geometry import TM_L1_GEOMETRY, TLS_L1_GEOMETRY
from repro.core.decode import DeltaDecoder
from repro.core.expansion import count_expansion_work, expand_signature, line_may_be_in
from repro.core.permutation import BitPermutation
from repro.core.signature import Signature
from repro.core.signature_config import (
    TABLE8_CHUNKS,
    SignatureConfig,
    default_tls_config,
    default_tm_config,
    table8_config,
)
from repro.mem.address import (
    LINE_ADDRESS_BITS,
    WORD_ADDRESS_BITS,
    Granularity,
    words_of_line,
)

LINE = tuple(range(16))


def fill_lines(cache, line_addresses):
    for line_address in line_addresses:
        cache.fill(line_address, LINE)


class TestLineMayBeIn:
    def test_line_granularity_direct(self, tm_config):
        signature = Signature.from_addresses(tm_config, {0x123})
        assert line_may_be_in(signature, 0x123)

    def test_word_granularity_lifts_over_words(self, tls_config):
        signature = Signature(tls_config)
        signature.add((0x55 << 4) + 9)  # word 9 of line 0x55
        assert line_may_be_in(signature, 0x55)

    def test_untouched_line_usually_rejected(self, tm_config):
        signature = Signature.from_addresses(tm_config, {0x100})
        assert not line_may_be_in(signature, 0x347261)


class TestExpansion:
    def test_finds_all_matching_cached_lines(self):
        config = default_tm_config()
        cache = Cache(TM_L1_GEOMETRY)
        decoder = DeltaDecoder(config, TM_L1_GEOMETRY.num_sets)
        inserted = {0x10, 0x90, 0x1234}
        fill_lines(cache, inserted | {0x5555, 0x2020})
        signature = Signature.from_addresses(config, inserted)
        found = {line.line_address for _, line in expand_signature(
            signature, cache, decoder
        )}
        assert inserted <= found  # no false negatives among cached lines

    def test_empty_signature_expands_to_nothing(self):
        config = default_tm_config()
        cache = Cache(TM_L1_GEOMETRY)
        decoder = DeltaDecoder(config, TM_L1_GEOMETRY.num_sets)
        fill_lines(cache, {1, 2, 3})
        assert list(expand_signature(Signature(config), cache, decoder)) == []

    def test_expansion_only_walks_selected_sets(self):
        """The Figure 4 point: delta-directed expansion reads far fewer
        tags than a full walk."""
        config = default_tm_config()
        cache = Cache(TM_L1_GEOMETRY)
        decoder = DeltaDecoder(config, TM_L1_GEOMETRY.num_sets)
        fill_lines(cache, set(range(0x100, 0x200)))  # 256 lines cached
        signature = Signature.from_addresses(config, {0x100})
        sets_walked, tags_read, matched = count_expansion_work(
            signature, cache, decoder
        )
        assert sets_walked == 1
        assert tags_read <= TM_L1_GEOMETRY.associativity
        assert matched >= 1

    def test_word_granularity_expansion(self):
        config = default_tls_config()
        cache = Cache(TLS_L1_GEOMETRY)
        decoder = DeltaDecoder(config, TLS_L1_GEOMETRY.num_sets)
        fill_lines(cache, {0x77, 0x99})
        signature = Signature(config)
        signature.add((0x77 << 4) + 3)
        found = {line.line_address for _, line in expand_signature(
            signature, cache, decoder
        )}
        assert 0x77 in found


def _swapped(pairs):
    """A 30-bit permutation that swaps the given source bits' places."""
    sources = list(range(WORD_ADDRESS_BITS))
    for a, b in pairs:
        sources[a], sources[b] = sources[b], sources[a]
    return BitPermutation(WORD_ADDRESS_BITS, sources)


def _table8_word_configs():
    """Every Table 8 layout over word addresses under the identity,
    Table 5's TLS and two shuffled permutations."""
    rng = random.Random(5)
    configs = []
    for name in sorted(TABLE8_CHUNKS):
        configs.append(table8_config(name, Granularity.WORD))
        configs.append(
            table8_config(name, Granularity.WORD, use_paper_permutation=True)
        )
        for _ in range(2):
            configs.append(
                table8_config(
                    name,
                    Granularity.WORD,
                    permutation=BitPermutation.shuffled(WORD_ADDRESS_BITS, rng),
                )
            )
    return configs


#: The TLS default keeps all four word-offset bits in chunk 0.  These two
#: (10, 10) configurations cover the probe plan's other cases: offset
#: bits split across two chunks (source bits 1 and 3 land in chunk 1),
#: and an offset bit sent above every chunk, where it is not encoded.
OFFSET_EDGE_CONFIGS = [
    SignatureConfig.make(
        (10, 10), Granularity.WORD, _swapped([(1, 10), (3, 14)]),
        name="offset-bits-split",
    ),
    SignatureConfig.make(
        (10, 10), Granularity.WORD, _swapped([(3, 25)]),
        name="offset-bit-above-chunks",
    ),
]
word_configs = st.one_of(
    st.sampled_from(OFFSET_EDGE_CONFIGS),
    st.sampled_from(_table8_word_configs()),
)
line_addresses = st.integers(min_value=0, max_value=(1 << LINE_ADDRESS_BITS) - 1)
word_addresses = st.integers(min_value=0, max_value=(1 << WORD_ADDRESS_BITS) - 1)


@st.composite
def line_probes(draw):
    """A configuration, a signature's words and the lines to probe.

    Most words come from a few lines; a few are anywhere.  The probes
    are those lines, each word's line, and one-bit neighbours of the
    clustered lines, which share most of their chunk values.
    """
    config = draw(word_configs)
    lines = draw(st.lists(line_addresses, min_size=1, max_size=4, unique=True))
    words = draw(
        st.lists(
            st.builds(
                lambda line, offset: (line << 4) | offset,
                st.sampled_from(lines),
                st.integers(min_value=0, max_value=15),
            ),
            max_size=24,
        )
    )
    words += draw(st.lists(word_addresses, max_size=6))
    flips = draw(
        st.lists(st.integers(0, LINE_ADDRESS_BITS - 1), min_size=1, max_size=4)
    )
    probes = set(lines) | {word >> 4 for word in words}
    probes |= {line ^ (1 << bit) for line in lines for bit in flips}
    probes |= set(draw(st.lists(line_addresses, max_size=4)))
    return config, words, sorted(probes)


@settings(max_examples=200, deadline=None)
@given(line_probes())
def test_line_probe_matches_the_per_word_definition(probe):
    """A word-granularity line is in a signature iff one of its words is."""
    config, words, probes = probe
    signature = Signature.from_addresses(config, words)
    for line_address in probes:
        assert line_may_be_in(signature, line_address) == any(
            word in signature for word in words_of_line(line_address)
        ), (config.name, config.permutation.sources, line_address)
