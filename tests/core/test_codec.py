"""Codec path counters: what counts as a compute, and which lane fires.

The conformance battery (test_backend_conformance.py) proves the codec
kernels are bit-exact; this file pins the *accounting* contract of
:mod:`repro.core.backend.codec`:

* counters move only when a result is actually computed — memo hits
  (the decode memo, the RLE cache) touch neither counter;
* dispatch follows the signature's backend: scalar backends count
  ``fallback``, a codec-bearing backend counts the vectorised paths,
  and a whole run on the default backend fires no vectorised lane;
* the expansion batch threshold routes small batches to the scalar
  path, bit-identically.
"""

import dataclasses

import pytest

from repro.analysis.experiments import run_tm_comparison
from repro.cache.cache import Cache
from repro.cache.geometry import TM_L1_GEOMETRY
from repro.core.backend import resolve_backend
from repro.core.backend.codec import (
    EXPANSION_VECTOR_MIN_LINES,
    codec_stats,
    note_codec,
    reset_codec_stats,
)
from repro.core.decode import DeltaDecoder
from repro.core.expansion import matched_lines
from repro.core.rle import rle_decode, rle_encode
from repro.core.signature_config import default_tm_config


NUM_SETS = TM_L1_GEOMETRY.num_sets


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_codec_stats()
    yield
    reset_codec_stats()


@pytest.fixture
def config(request):
    # A config of its own per test: the RLE memo hangs off the config,
    # and every decoder of equal configs shares one decode memo, so
    # sharing either would leak memo hits between tests.
    return dataclasses.replace(default_tm_config(), name=request.node.name)


def _filled(config, backend_name, addresses):
    return resolve_backend(backend_name).from_addresses(config, addresses)


def _numpy_available() -> bool:
    return resolve_backend("numpy").name == "numpy"


def test_note_codec_and_stats_roundtrip():
    note_codec("fallback")
    note_codec("fallback")
    note_codec("decode_vectorised")
    stats = codec_stats()
    assert stats["fallback"] == 2
    assert stats["decode_vectorised"] == 1
    assert stats["rle_vectorised"] == 0
    reset_codec_stats()
    assert all(count == 0 for count in codec_stats().values())


def test_default_backend_run_computes_only_on_the_scalar_path():
    """A whole TM comparison on the default backend, which ships no
    codec, serves every decode, RLE and expansion compute from the
    scalar reference, whether or not numpy is installed."""
    run_tm_comparison("mc", txns_per_thread=3, seed=5)
    stats = codec_stats()
    assert stats["fallback"] > 0
    assert {path: count for path, count in stats.items()
            if path != "fallback" and count} == {}


def test_scalar_backend_decode_counts_fallback(config):
    signature = _filled(config, "packed", [1, 2, 3])
    DeltaDecoder(config, NUM_SETS).decode(signature)
    stats = codec_stats()
    assert stats["fallback"] == 1
    assert stats["decode_vectorised"] == 0


@pytest.mark.skipif(not _numpy_available(), reason="numpy backend unavailable")
def test_numpy_backend_decode_counts_vectorised(config):
    signature = _filled(config, "numpy", [1, 2, 3])
    DeltaDecoder(config, NUM_SETS).decode(signature)
    stats = codec_stats()
    assert stats["decode_vectorised"] == 1
    assert stats["fallback"] == 0


def test_decode_memo_hits_do_not_count(config):
    signature = _filled(config, "packed", [7, 8, 9])
    decoder = DeltaDecoder(config, NUM_SETS)
    decoder.decode(signature)
    assert codec_stats()["fallback"] == 1
    for _ in range(5):
        DeltaDecoder(config, NUM_SETS).decode(signature)
    assert codec_stats()["fallback"] == 1


def test_rle_memo_hits_do_not_count(config):
    signature = _filled(config, "packed", [4, 5, 6])
    first = rle_encode(signature)
    assert codec_stats()["fallback"] == 1
    for _ in range(5):
        assert rle_encode(signature) == first
    assert codec_stats()["fallback"] == 1


def test_rle_decode_counts_per_backend(config):
    signature = _filled(config, "packed", [10, 11, 12])
    data = rle_encode(signature)
    reset_codec_stats()
    rle_decode(config, data)
    assert codec_stats()["fallback"] == 1
    assert codec_stats()["rle_decode_vectorised"] == 0
    if _numpy_available():
        reset_codec_stats()
        rle_decode(config, data, backend=resolve_backend("numpy"))
        assert codec_stats()["rle_decode_vectorised"] == 1
        assert codec_stats()["fallback"] == 0


@pytest.mark.skipif(not _numpy_available(), reason="numpy backend unavailable")
def test_expansion_threshold_routes_small_batches_scalar(config):
    # One resident line in one selected set: below the vector minimum,
    # so even the codec-bearing backend takes the scalar path — and the
    # two paths agree on the result.
    assert EXPANSION_VECTOR_MIN_LINES > 1
    cache = Cache(TM_L1_GEOMETRY)
    cache.fill(0x40, [0] * 16)
    decoder = DeltaDecoder(config, NUM_SETS)
    # The TM default is line granularity: signature addresses ARE line
    # addresses, so these two select cache sets 0x40 and 0x41.
    signature = _filled(config, "numpy", [0x40, 0x41])

    reset_codec_stats()
    small = matched_lines(signature, cache, decoder)
    assert codec_stats()["expansion_vectorised"] == 0

    # Fill every way of both selected sets: 2 sets x 4 ways = 8
    # candidates, meeting the vector minimum, so the vectorised lane
    # fires and still reports the original line.
    for base in (0x40, 0x41):
        for way in range(TM_L1_GEOMETRY.associativity):
            line_address = base + way * NUM_SETS
            if cache.lookup(line_address, touch=False) is None:
                cache.fill(line_address, [0] * 16)
    candidates = sum(
        len(cache.lines_in_set(s)) for s in decoder.selected_sets(signature)
    )
    assert candidates >= EXPANSION_VECTOR_MIN_LINES
    reset_codec_stats()
    large = matched_lines(signature, cache, decoder)
    assert codec_stats()["expansion_vectorised"] >= 1
    assert [entry[1].line_address for entry in small] == [0x40]
    assert 0x40 in [entry[1].line_address for entry in large]

