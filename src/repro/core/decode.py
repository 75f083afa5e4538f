"""The decode operation delta(S): signature → cache-set bitmask.

Section 3.2 defines delta to produce the **exact** set of cache set
indices of the addresses encoded in ``S``.  Exactness is possible because
each V_i field records the exact set of chunk-i values inserted (see
:mod:`repro.core.fields`): if all the cache-index bits of the (permuted)
address land inside a single chunk, projecting that chunk's exact value
set onto the index bits yields the exact index set.

The paper notes that if the index bits are spread over multiple C_i, "the
cache set bitmask can still be produced by simple logic on multiple Vi" —
but recombining values across fields loses cross-field correlation, so the
result is then a (correct) superset rather than exact.  The
:class:`DeltaDecoder` supports both; its :attr:`~DeltaDecoder.is_exact`
flag tells callers which case they are in.  The Bulk architecture
*requires* exactness for the squash-side bulk invalidation to be safe
(Section 4.3), which :class:`~repro.core.bdm.BulkDisambiguationModule`
enforces at construction.

Both of the paper's Table 5 permutations deliberately keep the cache-index
bits inside the first (10-bit, for S14) chunk, so the default
configurations are exact for the evaluated cache geometries.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.backend.codec import note_codec
from repro.core.bitvector import iter_set_bits
from repro.core.memo import DEFAULT_DECODE_CAPACITY, Memo
from repro.core.signature import Signature
from repro.core.signature_config import SignatureConfig
from repro.errors import DeltaInexactError
from repro.mem.address import WORD_TO_LINE_SHIFT, Granularity, line_index_bits

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``Granularity.LINE`` goes through the enum
# metaclass's ``__getattr__``, several times slower than a module
# global.  Only a decoder's construction compares it here, but every
# simulator module keeps the one rule (tests/sim/test_hot_loops.py).
_LINE = Granularity.LINE

#: (config, num_sets) -> the decode memo every decoder of that pair
#: shares.  Decode is pure in (config, num_sets, flat value), so sharing
#: is safe — and it is what pays: each processor's BDM owns its own
#: decoder, and a commit broadcast decodes the *same* signature once per
#: receiver.  Bounded: one entry per pair (a handful per process) of at
#: most ``DEFAULT_DECODE_CAPACITY`` masks each.
_DECODE_MEMOS: Dict[Tuple[SignatureConfig, int], Memo] = {}


class DeltaDecoder:
    """Precomputed decode logic for one (configuration, cache geometry) pair.

    Parameters
    ----------
    config:
        The signature configuration whose registers will be decoded.
    num_sets:
        Number of sets in the cache the bitmask indexes (power of two).
    """

    __slots__ = (
        "config",
        "num_sets",
        "is_exact",
        "_index_bit_count",
        "_groups",
        "_uncovered_bits",
        "_set_mask",
        "_vec_state",
        "_memo",
    )

    def __init__(self, config: SignatureConfig, num_sets: int) -> None:
        self.config = config
        self.num_sets = num_sets
        key = (config, num_sets)
        memo = _DECODE_MEMOS.get(key)
        if memo is None:
            memo = _DECODE_MEMOS[key] = Memo("decode", DEFAULT_DECODE_CAPACITY)
        self._memo = memo
        self._set_mask = num_sets - 1
        self._index_bit_count = line_index_bits(num_sets)

        # Which source bits of the (granularity-level) address form the
        # cache set index?  For line addresses they are the low bits; for
        # word addresses the line address is word >> 4, so the index bits
        # sit above the word-in-line offset.
        if config.granularity is _LINE:
            first = 0
        else:
            first = WORD_TO_LINE_SHIFT
        source_bits = range(first, first + self._index_bit_count)

        # Map each index bit through the permutation into a chunk.
        # _groups: chunk index -> list of (bit offset within chunk, index
        # bit position j).  _uncovered_bits: index bits that fall above all
        # chunks and are therefore not encoded at all.
        groups: Dict[int, List[Tuple[int, int]]] = {}
        uncovered: List[int] = []
        layout = config.layout
        for j, source in enumerate(source_bits):
            dest = config.permutation.destination_of(source)
            chunk = layout.chunk_of_bit(dest)
            if chunk < 0:
                uncovered.append(j)
            else:
                offset = dest - layout.chunk_offsets[chunk]
                groups.setdefault(chunk, []).append((offset, j))
        self._groups = groups
        self._uncovered_bits = tuple(uncovered)
        self.is_exact = len(groups) == 1 and not uncovered
        #: Per-decoder cache of a codec's precomputed decode state (the
        #: gather tables of the vectorised kernel); built lazily by the
        #: codec on first use, ``None`` until then.
        self._vec_state = None

    def require_exact(self) -> None:
        """Raise unless this decoder is exact (the Section 4.3 requirement)."""
        if not self.is_exact:
            raise DeltaInexactError(
                f"delta(S) is not exact for signature {self.config.name!r} "
                f"with {self.num_sets} cache sets: the cache-index bits of "
                "the permuted address do not fall within a single C_i chunk"
            )

    def decode(self, signature: Signature) -> int:
        """delta(S): bitmask over cache sets (bit *i* set = set *i* selected).

        Exact when :attr:`is_exact`; otherwise a conservative superset.
        An empty signature decodes to the empty mask.

        Memoised on the flat register value, in the memo every decoder
        of this (configuration, ``num_sets``) pair shares: a commit
        broadcast then costs one decode plus one lookup per further
        receiver.  A miss dispatches to the vectorised codec of the
        signature's storage backend when it ships one
        (:mod:`repro.core.backend.codec`); :meth:`decode_scalar` is the
        bit-exact scalar reference both paths must agree with.
        """
        memo = self._memo
        flat = signature.to_flat_int()
        mask = memo.get(flat)
        if mask is None:
            codec = signature._codec
            if signature.is_empty():
                mask = 0
            elif codec is not None:
                note_codec("decode_vectorised")
                mask = codec.delta_decode(self, signature)
            else:
                note_codec("fallback")
                mask = self.decode_scalar(signature)
            memo.put(flat, mask)
        return mask

    def decode_scalar(self, signature: Signature) -> int:
        """The scalar reference decode (codec kernels must match it)."""
        if signature.is_empty():
            return 0

        # Start from the partial index values contributed by each chunk
        # group and combine them; a single group with no uncovered bits is
        # the exact case.
        fields = signature.fields
        partials = {0}
        for chunk, bit_pairs in self._groups.items():
            field = fields[chunk]
            contributions = set()
            for value in iter_set_bits(field):
                partial = 0
                for offset, j in bit_pairs:
                    partial |= ((value >> offset) & 1) << j
                contributions.add(partial)
            partials = {p | c for p in partials for c in contributions}

        for j in self._uncovered_bits:
            partials = {p | (bit << j) for p in partials for bit in (0, 1)}

        mask = 0
        for index in partials:
            mask |= 1 << index
        return mask

    def set_index_of(self, address: int) -> int:
        """Exact cache set index of one granularity-level address."""
        return self.config.granularity.line_of(address) & self._set_mask

    def selected_sets(self, signature: Signature) -> List[int]:
        """The set indices selected by delta(S), ascending.

        This is the sequence the Figure 4 finite-state machine walks during
        signature expansion.
        """
        return list(iter_set_bits(self.decode(signature)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "exact" if self.is_exact else "superset"
        return (
            f"DeltaDecoder({self.config.name}, num_sets={self.num_sets}, {kind})"
        )
