"""Signature configurations, including the Table 8 catalogue.

A :class:`SignatureConfig` fully determines a signature's behaviour: the
granularity of the encoded addresses (line vs word), the bit permutation
applied first, and the chunk layout that slices the permuted address into
the C_i bit-fields.

Table 8 of the paper lists 23 configurations, S1 through S23, spanning
512 bits to 16448 bits; S14 (two 10-bit chunks, 2 Kbit total) is the
default used in all headline experiments.  Table 5 gives the permutations
used for TM (line addresses, 26 bits) and TLS (word addresses, 30 bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.fields import ChunkLayout
from repro.core.memo import (
    DEFAULT_FLAT_MASK_CAPACITY,
    DEFAULT_RLE_CAPACITY,
    Memo,
)
from repro.core.permutation import BitPermutation, SpecEntry
from repro.errors import ConfigurationError
from repro.mem.address import WORD_TO_LINE_SHIFT, Granularity

#: Table 5's TM permutation, over 26-bit line addresses:
#: ``[0-6, 9, 11, 17, 7-8, 10, 12, 13, 15-16, 18-20, 14]``.
TM_PERMUTATION_SPEC: Tuple[SpecEntry, ...] = (
    (0, 6), 9, 11, 17, (7, 8), 10, 12, 13, (15, 16), (18, 20), 14,
)

#: Table 5's TLS permutation, over 30-bit word addresses:
#: ``[0-9, 11-19, 21, 10, 20, 22]``.
TLS_PERMUTATION_SPEC: Tuple[SpecEntry, ...] = (
    (0, 9), (11, 19), 21, 10, 20, 22,
)

#: Chunk layouts of the Table 8 configurations (the *Description* column).
TABLE8_CHUNKS: Dict[str, Tuple[int, ...]] = {
    "S1": (7, 7, 7, 7),
    "S2": (8, 7, 6, 5, 5),
    "S3": (5, 5, 6, 7, 8),
    "S4": (8, 8, 8, 8),
    "S5": (9, 8, 7, 7),
    "S6": (5, 8, 8, 8),
    "S7": (8, 5, 8, 8),
    "S8": (8, 8, 5, 8),
    "S9": (5, 8, 8, 5),
    "S10": (9, 9, 8, 6),
    "S11": (9, 10, 8, 5),
    "S12": (10, 9, 6),
    "S13": (10, 9, 7),
    "S14": (10, 10),
    "S15": (10, 9, 9),
    # Table 8 prints S16's layout as "10, 10, 7, 5" (2208 bits) but its
    # Full Size column says 2336 bits; (10, 10, 8, 5) is the layout that
    # matches the stated size, so the description is taken to be a typo.
    "S16": (10, 10, 8, 5),
    "S17": (10, 10, 10),
    "S18": (11, 10, 10),
    "S19": (11, 11),
    "S20": (12,),
    "S21": (11, 11, 4),
    "S22": (11, 11, 10),
    "S23": (13, 13, 6),
}

#: Full sizes in bits reported by Table 8, used as a self-check.
TABLE8_FULL_SIZES: Dict[str, int] = {
    "S1": 512, "S2": 512, "S3": 512, "S4": 1024, "S5": 1024,
    "S6": 800, "S7": 800, "S8": 800, "S9": 576, "S10": 1344,
    "S11": 1824, "S12": 1600, "S13": 1664, "S14": 2048, "S15": 2048,
    "S16": 2336, "S17": 3072, "S18": 4096, "S19": 4096, "S20": 4096,
    "S21": 4112, "S22": 5120, "S23": 16448,
}

#: Average RLE-compressed sizes in bits reported by Table 8 (reference data
#: for EXPERIMENTS.md comparisons; measured values depend on the workload).
TABLE8_COMPRESSED_SIZES: Dict[str, int] = {
    "S1": 254, "S2": 282, "S3": 193, "S4": 290, "S5": 318,
    "S6": 234, "S7": 266, "S8": 281, "S9": 234, "S10": 334,
    "S11": 356, "S12": 353, "S13": 353, "S14": 363, "S15": 353,
    "S16": 396, "S17": 380, "S18": 438, "S19": 469, "S20": 381,
    "S21": 497, "S22": 497, "S23": 1219,
}

#: Name of the configuration used in all the paper's headline experiments.
DEFAULT_SIGNATURE_NAME = "S14"


@dataclass(frozen=True)
class SignatureConfig:
    """Immutable description of how signatures encode addresses.

    Instances are hashable and shared freely between the many signatures of
    a simulation; per-signature state lives in
    :class:`repro.core.signature.Signature`.
    """

    name: str
    granularity: Granularity
    permutation: BitPermutation
    layout: ChunkLayout

    def __post_init__(self) -> None:
        if self.permutation.width != self.granularity.address_bits:
            raise ConfigurationError(
                f"permutation width {self.permutation.width} does not match "
                f"{self.granularity.value}-address width "
                f"{self.granularity.address_bits}"
            )
        if self.layout.address_bits != self.granularity.address_bits:
            raise ConfigurationError(
                f"chunk layout address width {self.layout.address_bits} does "
                f"not match granularity {self.granularity.value}"
            )
        # Per-address encode memo (not a dataclass field: excluded from
        # eq/hash/repr).  Configurations are shared across the many
        # signatures of a simulation, so repeated insertions of the same
        # address hit the memo instead of re-running permute + slice.
        # Size-capped: long word-granularity TLS grid runs touch an
        # unbounded stream of distinct words, and the memo must not grow
        # with them.
        object.__setattr__(
            self,
            "_flat_mask_cache",
            Memo("flat_mask", DEFAULT_FLAT_MASK_CAPACITY),
        )
        # Commit-packet RLE memo (see repro.core.rle): flat register
        # value -> encoded bytes.  Commits often re-send a signature
        # already encoded (a TLS spawn snapshot, a TM thread rewriting
        # the same lines), and the encoding is a pure function of the
        # flat value for a fixed layout.
        object.__setattr__(
            self, "_rle_cache", Memo("rle", DEFAULT_RLE_CAPACITY)
        )
        # The fused encoder's per-field plan (see _encode_mask): one
        # (field offset, chunk offset, chunk mask) triple per field.
        layout = self.layout
        object.__setattr__(
            self,
            "_field_plan",
            tuple(
                (field_offset, chunk_offset, (1 << chunk_size) - 1)
                for field_offset, chunk_offset, chunk_size in zip(
                    layout.field_offsets,
                    layout.chunk_offsets,
                    layout.chunk_sizes,
                )
            ),
        )
        # The word-granularity line probe's plan (see
        # repro.core.expansion.line_may_be_in): one (chunk offset, chunk
        # mask, window) triple per field.  A line's 16 words differ only
        # in the word-offset bits, and each of those lands in one chunk
        # or above every chunk, so in field i the words' chunk values
        # are word 0's value plus every subset sum of the weights of the
        # offset bits in chunk i.  The window sets bit s for each such
        # sum, shifted to the field's offset in the flattened signature.
        line_plan = None
        if self.granularity is Granularity.WORD:
            patterns = [1] * layout.num_fields
            for source in range(WORD_TO_LINE_SHIFT):
                destination = self.permutation.destination_of(source)
                field = layout.chunk_of_bit(destination)
                if field >= 0:
                    weight = 1 << (destination - layout.chunk_offsets[field])
                    patterns[field] |= patterns[field] << weight
            line_plan = tuple(
                (chunk_offset, chunk_mask, pattern << field_offset)
                for (field_offset, chunk_offset, chunk_mask), pattern in zip(
                    self._field_plan, patterns
                )
            )
        object.__setattr__(self, "_line_plan", line_plan)

    @classmethod
    def make(
        cls,
        chunk_sizes: Sequence[int],
        granularity: Granularity,
        permutation: Optional[BitPermutation] = None,
        name: str = "custom",
    ) -> "SignatureConfig":
        """Build a configuration, defaulting to the identity permutation."""
        bits = granularity.address_bits
        if permutation is None:
            permutation = BitPermutation.identity(bits)
        return cls(
            name=name,
            granularity=granularity,
            permutation=permutation,
            layout=ChunkLayout(chunk_sizes, bits),
        )

    @property
    def size_bits(self) -> int:
        """Total signature size in bits (Table 8's *Full Size*)."""
        return self.layout.signature_bits

    def encode(self, address: int) -> Tuple[int, ...]:
        """Permute an address and return its chunk values (one per field).

        The spec-level reference: the mask paths below run the fused
        :meth:`_encode_mask` instead, and the tests hold them to this.
        """
        return self.layout.chunk_values(self.permutation.apply(address))

    def _encode_mask(self, address: int) -> int:
        """The fused encoder: permute, slice and one-hot decode in one go.

        Looks the address up in the permutation's byte tables, then sets
        each field's bit at its chunk value — the OR of
        ``1 << (field offset + chunk)`` over :meth:`encode`, without the
        intermediate permuted address and chunk tuple.  It is the one
        place masks are computed: the memo misses of :meth:`flat_mask`
        and every address of :meth:`flat_masks`.
        """
        permuted = 0
        shift = 0
        for table in self.permutation._byte_tables:
            permuted |= table[(address >> shift) & 0xFF]
            shift += 8
        mask = 0
        for field_offset, chunk_offset, chunk_mask in self._field_plan:
            chunk = (permuted >> chunk_offset) & chunk_mask
            mask |= 1 << (field_offset + chunk)
        return mask

    def flat_mask(self, address: int) -> int:
        """The address's one-bit-per-field mask in the flattened signature.

        Inserting an address ORs this mask in; membership ANDs against
        it.  Memoised per configuration, since workloads revisit the same
        addresses constantly.
        """
        # Hot path: Memo.get inlined (one dict probe and a counter) —
        # this memo is consulted on every recorded access of every
        # simulator.
        memo = self._flat_mask_cache
        mask = memo._data.get(address)
        if mask is not None:
            memo.counts[0] += 1
            return mask
        memo.counts[1] += 1
        mask = self._encode_mask(address)
        memo.put(address, mask)
        return mask

    def flat_masks(self, addresses: "Iterable[int]") -> List[int]:
        """Each address's :meth:`flat_mask`, in order, bypassing the memo.

        For a batch the memo would only fill, not serve: the Figure 15
        sweep encodes every distinct sample address once per
        configuration, so memoising those masks would keep one entry per
        address alive in every configuration of ``TABLE8_CONFIGS``.  No
        memo entry, hit or miss is recorded.
        """
        return list(map(self._encode_mask, addresses))

    def with_permutation(self, permutation: BitPermutation) -> "SignatureConfig":
        """The same configuration under a different bit permutation."""
        return SignatureConfig(
            name=self.name,
            granularity=self.granularity,
            permutation=permutation,
            layout=self.layout,
        )


def _paper_permutation(granularity: Granularity) -> BitPermutation:
    """The Table 5 permutation appropriate for a granularity."""
    if granularity is Granularity.LINE:
        return BitPermutation.from_spec(
            granularity.address_bits, TM_PERMUTATION_SPEC
        )
    return BitPermutation.from_spec(granularity.address_bits, TLS_PERMUTATION_SPEC)


def table8_config(
    name: str,
    granularity: Granularity = Granularity.LINE,
    permutation: Optional[BitPermutation] = None,
    use_paper_permutation: bool = False,
) -> SignatureConfig:
    """One of the S1..S23 configurations of Table 8.

    Figure 15's bars use *no* initial permutation; its error segments sweep
    permutations.  Pass ``use_paper_permutation=True`` (or an explicit
    ``permutation``) for the Table 5 wiring used by the main experiments.
    """
    if name not in TABLE8_CHUNKS:
        raise ConfigurationError(
            f"unknown Table 8 signature {name!r}; choose one of S1..S23"
        )
    if permutation is None and use_paper_permutation:
        permutation = _paper_permutation(granularity)
    config = SignatureConfig.make(
        TABLE8_CHUNKS[name], granularity, permutation, name=name
    )
    expected = TABLE8_FULL_SIZES[name]
    if config.size_bits != expected:
        raise ConfigurationError(
            f"internal error: {name} should be {expected} bits, "
            f"got {config.size_bits}"
        )
    return config


def default_tm_config() -> SignatureConfig:
    """The paper's TM default: S14 over line addresses, Table 5 permutation."""
    return table8_config(
        DEFAULT_SIGNATURE_NAME, Granularity.LINE, use_paper_permutation=True
    )


def default_tls_config() -> SignatureConfig:
    """The paper's TLS default: S14 over word addresses, Table 5 permutation."""
    return table8_config(
        DEFAULT_SIGNATURE_NAME, Granularity.WORD, use_paper_permutation=True
    )


#: All Table 8 configurations (no permutation), keyed by name — the bar
#: series of Figure 15.
TABLE8_CONFIGS: Dict[str, SignatureConfig] = {
    name: table8_config(name) for name in TABLE8_CHUNKS
}
