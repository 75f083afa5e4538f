"""Signature expansion over a cache (Section 3.3, Figure 4).

Expansion finds the lines *present in a cache* that may belong to a
signature: ``H^{-1}(S) ∩ T`` where ``T`` is the set of cached line
addresses.  The naive implementation — apply the membership test to every
valid tag — is wasteful; the hardware instead decodes the signature into a
cache-set bitmask with delta, and a small FSM walks only the selected
sets, reading each set's valid line addresses and membership-testing them.

This module reproduces that structure: :func:`matched_lines` (and its
generator wrapper :func:`expand_signature`) walks the
:class:`~repro.core.decode.DeltaDecoder`-selected sets of a
:class:`~repro.cache.Cache` and returns the lines that pass membership.

The membership pass is the codec seam's expansion kernel
(:mod:`repro.core.backend.codec`): all selected sets' resident line tags
are gathered into one batch and, when the signature's backend ships a
vectorised codec, membership-tested against the register in a single
broadcast instead of per-line ``__contains__`` calls.  The scalar path
is :func:`line_may_be_in` per candidate: a flat-mask intersect for a
line-granularity signature, and for a word-granularity one a single
probe that tests all 16 words of the line at once, with no per-word
encode and no memo.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.cache.cache import Cache
from repro.cache.line import CacheLine
from repro.core.backend.codec import EXPANSION_VECTOR_MIN_LINES, note_codec
from repro.core.decode import DeltaDecoder
from repro.core.signature import Signature
from repro.mem.address import WORD_TO_LINE_SHIFT, Granularity

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``Granularity.LINE`` goes through the enum
# metaclass's ``__getattr__``, several times slower than a module
# global, and ``line_may_be_in`` compares them per probed line.
_LINE = Granularity.LINE


def line_may_be_in(signature: Signature, line_address: int) -> bool:
    """Membership test lifted to line addresses.

    For line-granularity signatures this is the plain membership test.
    For word-granularity signatures a line may be in the signature if *any*
    of its words is — the natural lift the TLS configuration uses when
    walking cache tags.  That is one probe, not sixteen: the words differ
    only in their offset bits, so their chunk values are word 0's plus a
    fixed set of offsets per field, and their value tuples are the
    product of the per-field sets.  Some word is in the signature exactly
    when every field has a set bit in its window at word 0's chunk value
    (``SignatureConfig._line_plan``).  Word 0 is permuted once, and no
    word is encoded or memoised.
    """
    config = signature.config
    if config.granularity is _LINE:
        return line_address in signature
    permuted = config.permutation.apply(line_address << WORD_TO_LINE_SHIFT)
    flat = signature.to_flat_int()
    for chunk_offset, chunk_mask, window in config._line_plan:
        if not flat & (window << ((permuted >> chunk_offset) & chunk_mask)):
            return False
    return True


def matched_lines(
    signature: Signature,
    cache: Cache,
    decoder: DeltaDecoder,
) -> List[Tuple[int, CacheLine]]:
    """``(set_index, line)`` for cached lines possibly in ``signature``.

    The batched form of Figure 4's walk: decode once, gather every
    selected set's resident lines, then run the membership pass over the
    whole batch — through the backend's vectorised codec when present
    and the batch is large enough to profit, else the scalar
    :func:`line_may_be_in` per candidate (bit-identical either way).

    The result is a snapshot taken before anything is returned, so
    callers may invalidate or replace lines as they consume it (bulk
    invalidation does).
    """
    candidates: List[Tuple[int, CacheLine]] = []
    for set_index in decoder.selected_sets(signature):
        for line in cache.lines_in_set(set_index):
            candidates.append((set_index, line))
    if not candidates:
        return candidates
    codec = signature._codec
    if codec is not None and len(candidates) >= EXPANSION_VECTOR_MIN_LINES:
        note_codec("expansion_vectorised")
        flags = codec.match_lines(
            signature, [line.line_address for _, line in candidates]
        )
    else:
        note_codec("fallback")
        flags = [
            line_may_be_in(signature, line.line_address)
            for _, line in candidates
        ]
    return [pair for pair, flag in zip(candidates, flags) if flag]


def expand_signature(
    signature: Signature,
    cache: Cache,
    decoder: DeltaDecoder,
) -> Iterator[Tuple[int, CacheLine]]:
    """Yield ``(set_index, line)`` for cached lines possibly in ``signature``.

    Generator wrapper over :func:`matched_lines` (which see); lines are
    yielded from a pre-walk snapshot, so callers may invalidate or
    replace lines as they iterate (bulk invalidation does).
    """
    yield from matched_lines(signature, cache, decoder)


def count_expansion_work(
    signature: Signature,
    cache: Cache,
    decoder: DeltaDecoder,
) -> Tuple[int, int, int]:
    """Instrumentation: (sets walked, tags read, lines matched).

    Used by the characterisation benchmarks to show how much tag traffic
    delta-directed expansion saves over a full tag walk.
    """
    sets_walked = 0
    tags_read = 0
    matched = 0
    for set_index in decoder.selected_sets(signature):
        sets_walked += 1
        lines = cache.lines_in_set(set_index)
        tags_read += len(lines)
        matched += sum(
            1 for line in lines if line_may_be_in(signature, line.line_address)
        )
    return sets_walked, tags_read, matched
