"""Ablation — delta-directed expansion vs a naive full tag walk.

Figure 4's motivation: bulk invalidation could naively membership-test
every valid cache tag; instead, delta(S) selects only the relevant sets
and the FSM walks those.  This ablation measures both the *work* (tags
read) and the wall-clock of the two strategies on realistic register
contents, for TM's line signatures and TLS's word signatures.

The naive walk tests each tag by the definition: plain membership for a
line signature, and for a word signature whether any of the line's 16
words is in it.  Its matches must equal the directed walk's, which holds
delta-directed expansion and the one-probe line test of
:func:`~repro.core.expansion.line_may_be_in` to that definition.
"""

import random

import pytest

from repro.analysis.report import render_table
from repro.cache.cache import Cache
from repro.cache.geometry import TLS_L1_GEOMETRY, TM_L1_GEOMETRY
from repro.core.decode import DeltaDecoder
from repro.core.expansion import count_expansion_work
from repro.core.signature import Signature
from repro.core.signature_config import default_tls_config, default_tm_config
from repro.mem.address import Granularity, words_of_line

#: TM signatures encode line addresses and TLS signatures word addresses
#: (Table 5), each on its own L1 geometry.
CASES = {
    "tm": (default_tm_config(), TM_L1_GEOMETRY),
    "tls": (default_tls_config(), TLS_L1_GEOMETRY),
}
RNG = random.Random(3)


def build_state(config, geometry, write_set_lines: int):
    cache = Cache(geometry)
    # Fill the cache to capacity with clustered lines (committed data).
    capacity = geometry.num_sets * geometry.associativity
    while cache.valid_line_count() < capacity:
        cluster = RNG.randrange(1 << 24)
        for offset in range(8):
            line = (cluster + offset) & ((1 << 26) - 1)
            if not cache.contains(line):
                cache.fill(line, [0] * 16)
    # The committing write set: clustered, Table 7-sized lines.
    lines = set()
    while len(lines) < write_set_lines:
        cluster = RNG.randrange(1 << 24)
        for offset in range(4):
            lines.add((cluster + offset) & ((1 << 26) - 1))
    if config.granularity is Granularity.WORD:
        # A TLS task writes a few words of each line, and the receiver
        # caches some of the lines it wrote.
        cached = sorted(line.line_address for line in cache.all_lines())
        lines.update(RNG.sample(cached, write_set_lines // 4))
        addresses = {
            (line << 4) | RNG.randrange(16)
            for line in sorted(lines)
            for _ in range(RNG.randrange(1, 4))
        }
    else:
        addresses = lines
    signature = Signature.from_addresses(config, addresses)
    return cache, signature


def naive_walk(signature: Signature, cache: Cache):
    if signature.config.granularity is Granularity.WORD:
        def contains(line_address):
            return any(word in signature for word in words_of_line(line_address))
    else:
        contains = signature.__contains__
    tags_read = 0
    matched = 0
    for line in cache.all_lines():
        tags_read += 1
        if contains(line.line_address):
            matched += 1
    return tags_read, matched


@pytest.mark.parametrize("case", list(CASES))
def test_ablation_expansion_vs_full_walk(benchmark, case):
    config, geometry = CASES[case]
    decoder = DeltaDecoder(config, geometry.num_sets)
    cache, signature = build_state(config, geometry, write_set_lines=22)

    benchmark(lambda: count_expansion_work(signature, cache, decoder))

    rows = []
    for write_set_lines in (6, 22, 64):
        cache, signature = build_state(config, geometry, write_set_lines)
        sets_walked, tags_directed, matched_directed = count_expansion_work(
            signature, cache, decoder
        )
        tags_naive, matched_naive = naive_walk(signature, cache)
        rows.append(
            [
                write_set_lines,
                sets_walked,
                tags_directed,
                tags_naive,
                tags_naive / max(1, tags_directed),
                matched_directed,
            ]
        )
        # Correctness: the directed walk finds every cached match.
        assert matched_directed == matched_naive
    print()
    print(
        render_table(
            ["W lines", "Sets walked", "Tags (delta)", "Tags (naive)",
             "Saving x", "Matches"],
            rows,
            title=f"Ablation ({case}): delta-directed expansion vs full tag "
            "walk (Figure 4)",
        )
    )
    # The directed walk must read strictly fewer tags for small W.
    assert rows[0][2] < rows[0][3]
