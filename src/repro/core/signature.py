"""Address signatures and the primitive bulk operations of Table 1.

A signature is the paper's hash-encoded superset representation of a set
of addresses.  The primitive operations are:

========================  ===================================================
Operation                 Implementation here
========================  ===================================================
intersection (``&``)      one bitwise AND of the packed registers
union (``|``)             one bitwise OR of the packed registers
emptiness                 *any* V_i field all-zero  (every insertion sets one
                          bit in every field, so a non-empty signature has at
                          least one bit set in each field)
membership (``in``)       encode the address, AND with the signature, check
                          emptiness — equivalently, test one bit per field
decode (delta)            see :mod:`repro.core.decode`
========================  ===================================================

Superset semantics: for an address set ``A``, ``H(A)`` contains every
member of ``A`` (no false negatives) and possibly aliases (false
positives).  Aliasing hurts performance, never correctness — the test
suite's property tests pin both halves of that contract.

Representation and backends
---------------------------
This class is the **packed** storage backend: the register is one Python
integer — all V_i fields concatenated, V_1 at the low end, exactly the
wire format of :meth:`Signature.to_flat_int`.  Intersection, union, and
the hot :meth:`Signature.intersects` are then single big-int bitwise
operations; per-field views are sliced out of the register only when a
caller actually needs them (:attr:`Signature.fields`,
:meth:`Signature.field_values`, the scalar delta decode).

Alternative storage backends (:mod:`repro.core.backend`) subclass this
and replace the storage while keeping the public surface: every mutation
funnels through the single :meth:`Signature.add_mask` mutation point,
every derived read goes through :meth:`Signature.to_flat_int` /
:meth:`Signature._load_flat`, and binary operations read the *other*
operand only through its wire format — so mixed-backend operands are
well-defined and a backend overrides a handful of methods, not all of
them.  The per-field list semantics are unchanged everywhere — the
property tests run every operation, on every registered backend, against
a per-field-list reference implementation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Set

from repro.core.bitvector import iter_set_bits, popcount
from repro.core.signature_config import SignatureConfig
from repro.errors import ConfigurationError


class Signature:
    """A mutable signature register of a fixed configuration.

    The register is stored packed: one Python integer holding every V_i
    field at its :attr:`~repro.core.fields.ChunkLayout.field_offsets`
    position.  All operations between two signatures require the same
    :class:`~repro.core.signature_config.SignatureConfig` — hardware
    registers of different shapes cannot be combined.
    """

    __slots__ = ("config", "_flat")

    #: Registry name of the storage backend this class implements; the
    #: base class *is* the default ``packed`` backend.
    backend_name = "packed"

    #: The vectorised codec kernels serving this storage
    #: (:class:`repro.core.backend.codec.CodecKernels`), or ``None`` to
    #: take the scalar reference paths in decode/RLE/expansion.  Set as
    #: a class attribute by backends that ship a codec, so codec
    #: selection follows the ``--sig-backend`` choice automatically.
    _codec = None

    def __init__(self, config: SignatureConfig) -> None:
        self.config = config
        self._flat = 0

    @classmethod
    def from_addresses(
        cls, config: SignatureConfig, addresses: Iterable[int]
    ) -> "Signature":
        """Encode a whole address set, one :meth:`add` per address."""
        signature = cls(config)
        for address in addresses:
            signature.add(address)
        return signature

    @property
    def fields(self) -> List[int]:
        """The V_i fields as a list of per-field bit vectors.

        Sliced out of the packed register on each read.  The list is a
        snapshot — mutating it does not write back into the register.
        """
        flat = self.to_flat_int()
        layout = self.config.layout
        return [
            (flat >> offset) & ((1 << size) - 1)
            for offset, size in zip(layout.field_offsets, layout.field_sizes)
        ]

    def _load_flat(self, flat: int) -> None:
        """Replace the register contents with an already-validated flat
        value (the storage-assignment primitive backends override)."""
        self._flat = flat

    def add(self, address: int) -> None:
        """Insert one address (at the configuration's granularity)."""
        self.add_mask(self.config.flat_mask(address))

    def add_mask(self, mask: int) -> None:
        """OR a precomputed flat mask into the register.

        This is the **single mutation point**: :meth:`add` and
        :meth:`from_addresses` reduce each address to its memoised
        :meth:`~repro.core.signature_config.SignatureConfig.flat_mask`
        and funnel it here.  It is also the fast lane for callers that
        already hold a mask (the BDM computes an access's mask once and
        feeds every signature that records the access).  An empty mask
        is a no-op.
        """
        self._flat |= mask

    def clear(self) -> None:
        """Gang-clear the register — this is how Bulk commits (Table 2)."""
        self._flat = 0

    def is_empty(self) -> bool:
        """Emptiness test: true iff some V_i field is all-zero."""
        flat = self.to_flat_int()
        if flat == 0:
            return True
        for mask in self.config.layout.field_masks:
            if not flat & mask:
                return True
        return False

    def __contains__(self, address: int) -> bool:
        """Membership test for one address (Table 1's element-of)."""
        mask = self.config.flat_mask(address)
        return self.to_flat_int() & mask == mask

    def _check_compatible(self, other: "Signature") -> None:
        if self.config is other.config:
            return
        if self.config != other.config:
            raise ConfigurationError(
                "cannot combine signatures with different configurations: "
                f"{self.config.name} vs {other.config.name}"
            )

    def __and__(self, other: "Signature") -> "Signature":
        """Signature intersection (bitwise AND of the packed registers)."""
        self._check_compatible(other)
        result = type(self)(self.config)
        result._load_flat(self.to_flat_int() & other.to_flat_int())
        return result

    def __or__(self, other: "Signature") -> "Signature":
        """Signature union (bitwise OR of the packed registers)."""
        self._check_compatible(other)
        result = type(self)(self.config)
        result._load_flat(self.to_flat_int() | other.to_flat_int())
        return result

    def union_update(self, other: "Signature") -> None:
        """In-place union (used when flattening nested transactions)."""
        self._check_compatible(other)
        self.add_mask(other.to_flat_int())

    def intersects(self, other: "Signature") -> bool:
        """True iff the intersection is non-empty.

        This is the hot operation of bulk disambiguation: one AND of the
        packed registers, then a per-field emptiness scan of the result —
        no intersection signature is allocated.
        """
        self._check_compatible(other)
        both = self.to_flat_int() & other.to_flat_int()
        if both == 0:
            return False
        for mask in self.config.layout.field_masks:
            if not both & mask:
                return False
        return True

    def copy(self) -> "Signature":
        """An independent copy of the register."""
        duplicate = type(self)(self.config)
        duplicate._load_flat(self.to_flat_int())
        return duplicate

    def popcount(self) -> int:
        """Total number of set bits across all fields."""
        return popcount(self.to_flat_int())

    def to_flat_int(self) -> int:
        """The signature flattened to one integer, V_1 at the low end.

        This is the wire format: what RLE compression operates on and what
        a commit broadcast carries.  It is also the packed backend's
        storage format, so here it is free; other backends derive (and
        memoise) it.
        """
        return self._flat

    @classmethod
    def from_flat_int(cls, config: SignatureConfig, flat: int) -> "Signature":
        """Rebuild a signature from its wire format."""
        if flat < 0 or flat >> config.size_bits:
            raise ConfigurationError(
                f"flat value does not fit in a {config.size_bits}-bit signature"
            )
        signature = cls(config)
        signature._load_flat(flat)
        return signature

    def set_bit_positions(self) -> Iterator[int]:
        """Positions of set bits in the flattened wire format, ascending."""
        return iter_set_bits(self.to_flat_int())

    def field_values(self, index: int) -> Set[int]:
        """The exact set of chunk-``index`` values inserted so far.

        V_i is a one-hot-decoded accumulation, so its set bits *are* the
        chunk values — the property the exact delta decode relies on.
        """
        layout = self.config.layout
        field = (self.to_flat_int() >> layout.field_offsets[index]) & (
            (1 << layout.field_sizes[index]) - 1
        )
        return set(iter_set_bits(field))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (
            self.config == other.config
            and self.to_flat_int() == other.to_flat_int()
        )

    def __hash__(self) -> int:
        return hash((self.config, self.to_flat_int()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.config.name}, "
            f"{self.config.size_bits} bits, popcount={self.popcount()})"
        )
