"""The ``numpy`` backend: packed ``uint64`` ndarray signature storage.

Importing this module requires numpy — the registry treats an
:class:`ImportError` here as "backend unavailable" and degrades to
``packed`` (see :mod:`repro.core.backend.registry`).

Storage layout
--------------
A :class:`NumpySignature` keeps its register as ``ceil(size_bits / 64)``
little-endian ``uint64`` words (``words[0]`` bit 0 is flat bit 0 — the
low end of V_1, exactly the wire format).  Scalar insertions are
*write-combined*: :meth:`NumpySignature.add_mask` ORs into a pending
big-int accumulator (as cheap as the packed backend's hot path) that is
flushed into the word array on the next array-side read, so the
per-access recording paths of the simulators do not pay a python→numpy
conversion per store.

Batched kernels
---------------
* :meth:`NumpyLayout.encode_words` — the vectorised ``add_many``: the
  bit permutation is applied to the whole address vector via the same
  256-entry byte tables the scalar
  :class:`~repro.core.permutation.BitPermutation` uses, each C_i chunk
  is sliced out with shifts/masks, the resulting global bit positions
  are scattered into a boolean plane (duplicate positions collapse for
  free), and ``np.packbits(..., bitorder="little")`` packs the plane
  into the word array.
* :meth:`NumpySignature.intersects` / ``union_update`` / ``&`` / ``|``
  — array bitwise ops; per-field emptiness uses a precomputed
  ``(n_fields, n_words)`` field word-mask matrix because V_i fields are
  not generally 64-bit aligned (S2's 5-bit chunks, S21's mixed sizes).
* :class:`NumpySignatureBank` — all receivers' (R, W) rows in one
  ``(n_rows, n_words)`` matrix; Equation 1 against every receiver is a
  single broadcast AND + ``any`` reduction.

Everything is bit-identical to the packed backend — the conformance
suite and the golden reproduce pin enforce it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backend.base import (
    SignatureArena,
    SignatureBackend,
    SignatureBank,
)
from repro.core.backend.codec import CodecKernels
from repro.core.signature import Signature
from repro.core.signature_config import SignatureConfig
from repro.errors import TraceError
from repro.mem.address import WORD_TO_LINE_SHIFT, WORDS_PER_LINE, Granularity

#: Explicit little-endian words: ``tobytes()``/``frombuffer`` round-trips
#: through ``int.to_bytes(..., "little")`` stay correct on any host.
WORD_DTYPE = np.dtype("<u8")


class NumpyLayout:
    """Per-configuration constants of the vectorised kernels.

    Built once per :class:`~repro.core.signature_config.SignatureConfig`
    (see :func:`layout_for`): the word count, the permutation's byte
    tables as ndarray lookup tables, each field's (offset, chunk shift,
    chunk mask) triple, and the per-field word masks used for emptiness
    reductions over word arrays.
    """

    __slots__ = (
        "size_bits",
        "num_words",
        "tables",
        "field_specs",
        "field_word_masks",
    )

    def __init__(self, config: SignatureConfig) -> None:
        layout = config.layout
        self.size_bits = layout.signature_bits
        self.num_words = (self.size_bits + 63) // 64
        # The scalar permutation already precomputes one 256-entry
        # lookup table per address byte; the vectorised apply is the
        # same tables indexed by a whole address vector.
        self.tables = [
            np.array(table, dtype=np.int64)
            for table in config.permutation._byte_tables
        ]
        self.field_specs = [
            (field_offset, chunk_offset, (1 << chunk_size) - 1)
            for field_offset, chunk_offset, chunk_size in zip(
                layout.field_offsets, layout.chunk_offsets, layout.chunk_sizes
            )
        ]
        self.field_word_masks = np.stack(
            [self.words_from_int(mask) for mask in layout.field_masks]
        )

    def new_words(self) -> "np.ndarray":
        """A fresh all-zero word array."""
        return np.zeros(self.num_words, dtype=WORD_DTYPE)

    def words_from_int(self, flat: int) -> "np.ndarray":
        """The flat wire format as a (mutable) word array."""
        return self.words_view(flat).copy()

    def words_view(self, flat: int) -> "np.ndarray":
        """Read-only word view of a flat value (no copy)."""
        return np.frombuffer(
            flat.to_bytes(self.num_words * 8, "little"), dtype=WORD_DTYPE
        )

    def int_from_words(self, words: "np.ndarray") -> int:
        """The word array packed back into the flat wire format."""
        return int.from_bytes(words.tobytes(), "little")

    def encode_words(
        self, addresses: Iterable[int]
    ) -> "Optional[np.ndarray]":
        """The batched build kernel: a whole address set as a word array.

        Bit-identical to ORing
        :meth:`~repro.core.signature_config.SignatureConfig.flat_mask`
        over the set: vectorised byte-table permute, chunk slicing, and
        a boolean-plane scatter (duplicates collapse) packed little-end
        first.  Returns ``None`` for an empty input.
        """
        array = np.fromiter(addresses, dtype=np.int64)
        if array.size == 0:
            return None
        permuted = self.tables[0][array & 0xFF]
        shift = 8
        for table in self.tables[1:]:
            permuted |= table[(array >> shift) & 0xFF]
            shift += 8
        plane = np.zeros(self.num_words * 64, dtype=bool)
        for field_offset, chunk_offset, chunk_mask in self.field_specs:
            plane[((permuted >> chunk_offset) & chunk_mask) + field_offset] = True
        return np.packbits(plane, bitorder="little").view(WORD_DTYPE)


#: One layout per configuration; configs are few and hashable, so a plain
#: dict memo suffices (equal configs share an entry).
_LAYOUTS: Dict[SignatureConfig, NumpyLayout] = {}


def layout_for(config: SignatureConfig) -> NumpyLayout:
    """The memoised :class:`NumpyLayout` of a configuration."""
    layout = _LAYOUTS.get(config)
    if layout is None:
        layout = _LAYOUTS[config] = NumpyLayout(config)
    return layout


class NumpySignature(Signature):
    """A signature register stored as packed little-endian uint64 words.

    The inherited ``_flat`` slot is a memo of the wire format (``None``
    while stale); ``_pending`` write-combines scalar ``add_mask`` calls
    until the next array-side read.
    """

    __slots__ = ("_layout", "_words", "_pending")

    backend_name = "numpy"

    def __init__(self, config: SignatureConfig) -> None:
        super().__init__(config)
        self._layout = layout_for(config)
        self._words = self._layout.new_words()
        self._pending = 0

    def words(self) -> "np.ndarray":
        """The register's word array, with pending scalar ORs flushed.

        The returned array is the live storage — callers must not
        mutate it.
        """
        pending = self._pending
        if pending:
            np.bitwise_or(
                self._words, self._layout.words_view(pending), out=self._words
            )
            self._pending = 0
        return self._words

    # -- storage primitives -------------------------------------------

    def _load_flat(self, flat: int, fields: Optional[List[int]] = None) -> None:
        self._words = self._layout.words_from_int(flat)
        self._pending = 0
        self._flat = flat
        self._fields = fields

    def add_mask(self, mask: int) -> None:
        if mask:
            self._pending |= mask
            self._flat = None
            self._fields = None

    def add_many(self, addresses: Iterable[int]) -> None:
        delta = self._layout.encode_words(addresses)
        if delta is None:
            return
        np.bitwise_or(self.words(), delta, out=self._words)
        self._flat = None
        self._fields = None

    def clear(self) -> None:
        self._words.fill(0)
        self._pending = 0
        self._flat = 0
        self._fields = None

    def to_flat_int(self) -> int:
        flat = self._flat
        if flat is None:
            flat = self._flat = self._layout.int_from_words(self.words())
        return flat

    # -- array-path operations ----------------------------------------

    def _field_nonempty_all(self, words: "np.ndarray") -> bool:
        """Whether every V_i field has a set bit in ``words``."""
        hits = words & self._layout.field_word_masks
        return bool((hits != 0).any(axis=1).all())

    def intersects(self, other: Signature) -> bool:
        if isinstance(other, NumpySignature):
            self._check_compatible(other)
            both = self.words() & other.words()
            if not both.any():
                return False
            return self._field_nonempty_all(both)
        return super().intersects(other)

    def union_update(self, other: Signature) -> None:
        if isinstance(other, NumpySignature):
            self._check_compatible(other)
            np.bitwise_or(self.words(), other.words(), out=self._words)
            self._flat = None
            self._fields = None
            return
        super().union_update(other)

    def _with_words(self, words: "np.ndarray") -> "NumpySignature":
        result = NumpySignature(self.config)
        result._words = words
        result._flat = None
        return result

    def __and__(self, other: Signature) -> Signature:
        if isinstance(other, NumpySignature):
            self._check_compatible(other)
            return self._with_words(self.words() & other.words())
        return super().__and__(other)

    def __or__(self, other: Signature) -> Signature:
        if isinstance(other, NumpySignature):
            self._check_compatible(other)
            return self._with_words(self.words() | other.words())
        return super().__or__(other)

    def copy(self) -> "NumpySignature":
        duplicate = self._with_words(self.words().copy())
        duplicate._flat = self._flat
        return duplicate


class _DecodeState:
    """Precomputed constants of the vectorised delta decode for one
    :class:`~repro.core.decode.DeltaDecoder` (cached on its
    ``_vec_state`` slot)."""

    __slots__ = ("groups", "uncovered", "plane_bits")

    #: Chunks wider than this skip the gather table (2^size entries) and
    #: compute contributions with a short per-index-bit loop instead.
    MAX_TABLE_BITS = 16

    def __init__(self, decoder) -> None:
        layout = decoder.config.layout
        # One entry per chunk group: the field's bit-plane slice plus a
        # gather table mapping chunk value -> partial set index (or the
        # raw (offset, j) pairs when the chunk is too wide to tabulate).
        self.groups: List[tuple] = []
        for chunk, bit_pairs in decoder._groups.items():
            field_offset = layout.field_offsets[chunk]
            field_size = layout.field_sizes[chunk]
            if layout.chunk_sizes[chunk] <= self.MAX_TABLE_BITS:
                values = np.arange(field_size, dtype=np.int64)
                table = np.zeros(field_size, dtype=np.int64)
                for offset, j in bit_pairs:
                    table |= ((values >> offset) & 1) << j
                self.groups.append((field_offset, field_size, table, None))
            else:  # pragma: no cover - no Table 8 chunk is this wide
                self.groups.append(
                    (field_offset, field_size, None, tuple(bit_pairs))
                )
        self.uncovered = decoder._uncovered_bits
        self.plane_bits = ((decoder.num_sets + 7) // 8) * 8


class NumpyCodec(CodecKernels):
    """The vectorised commit/squash codec over the packed word layout.

    Every kernel is bit-exact against its scalar reference
    (:meth:`~repro.core.decode.DeltaDecoder.decode_scalar`,
    :func:`repro.core.rle.rle_encode_scalar`,
    :func:`repro.core.rle.rle_decode_scalar_flat`,
    :func:`repro.core.expansion.line_may_be_in`) — the conformance
    battery asserts it for every registered backend shipping a codec.
    """

    name = "numpy"

    # -- shared helpers ------------------------------------------------

    @staticmethod
    def _words_of(signature: Signature) -> "np.ndarray":
        if isinstance(signature, NumpySignature):
            return signature.words()
        return layout_for(signature.config).words_view(signature.to_flat_int())

    @classmethod
    def _bit_plane(cls, signature: Signature) -> "np.ndarray":
        """The register as a little-endian boolean bit plane."""
        return np.unpackbits(
            cls._words_of(signature).view(np.uint8), bitorder="little"
        )

    # -- delta decode (Section 3.2) ------------------------------------

    def delta_decode(self, decoder, signature: Signature) -> int:
        """Project every V_i's exact value set onto the cache-index bits
        with the precomputed gather tables, recombine the per-field
        partial indices with a broadcast OR, and pack the selected-set
        plane back into an int bitmask."""
        if signature.is_empty():
            return 0
        state = decoder._vec_state
        if state is None:
            state = decoder._vec_state = _DecodeState(decoder)
        plane = self._bit_plane(signature)
        partials = np.zeros(1, dtype=np.int64)
        for field_offset, field_size, table, bit_pairs in state.groups:
            values = np.flatnonzero(plane[field_offset : field_offset + field_size])
            if table is not None:
                contributions = table[values]
            else:  # pragma: no cover - no Table 8 chunk is this wide
                contributions = np.zeros(values.shape, dtype=np.int64)
                for offset, j in bit_pairs:
                    contributions |= ((values >> offset) & 1) << j
            partials = np.unique(
                np.bitwise_or.outer(partials, contributions).ravel()
            )
        for j in state.uncovered:
            partials = np.unique(
                np.concatenate([partials, partials | (1 << j)])
            )
        mask_plane = np.zeros(state.plane_bits, dtype=np.uint8)
        mask_plane[partials] = 1
        return int.from_bytes(
            np.packbits(mask_plane, bitorder="little").tobytes(), "little"
        )

    # -- RLE commit packets (Section 6.1) ------------------------------

    @staticmethod
    def _varints(values: "np.ndarray") -> bytes:
        """LEB128 varints of a non-negative int64 vector, concatenated."""
        nbytes = np.ones(values.shape, dtype=np.int64)
        rest = values >> 7
        while rest.any():
            nbytes += rest != 0
            rest >>= 7
        owner = np.repeat(np.arange(values.size), nbytes)
        ends = np.cumsum(nbytes)
        position = np.arange(int(ends[-1]) if values.size else 0)
        position -= (ends - nbytes)[owner]
        payload = (values[owner] >> (7 * position)) & 0x7F
        continuation = position < nbytes[owner] - 1
        return (payload | (continuation << np.int64(7))).astype(np.uint8).tobytes()

    def rle_encode(self, signature: Signature) -> bytes:
        """Gap encoding via ``flatnonzero`` on the bit plane and one
        ``diff`` for the zero-run lengths — no per-bit python loop."""
        positions = np.flatnonzero(self._bit_plane(signature)).astype(np.int64)
        values = np.empty(positions.size + 1, dtype=np.int64)
        values[0] = positions.size
        if positions.size:
            values[1:] = np.diff(positions, prepend=np.int64(-1)) - 1
        return self._varints(values)

    def rle_decode(self, config: SignatureConfig, data: bytes) -> int:
        """Parse the whole varint stream in one pass.

        Accepts and rejects exactly what the scalar reference does: a
        gap that crosses the register width raises before a truncation
        later in the stream (the scalar walks left to right), and
        complete streams with leftover bytes are "trailing", not
        "truncated".
        """
        raw = np.frombuffer(data, dtype=np.uint8)
        terminals = np.flatnonzero((raw & 0x80) == 0)
        if terminals.size == 0:
            raise TraceError("truncated RLE stream")
        starts = np.empty_like(terminals)
        starts[0] = 0
        starts[1:] = terminals[:-1] + 1
        lengths = terminals - starts + 1
        if int(lengths.max()) > 4:
            # A >28-bit varint cannot be a valid gap or count for any
            # register geometry here; defer to the scalar reference so
            # arbitrary-precision streams keep identical error
            # behaviour without int64 overflow.
            from repro.core.rle import rle_decode_scalar_flat

            return rle_decode_scalar_flat(config, data)
        total = int(terminals[-1]) + 1
        owner = np.repeat(np.arange(terminals.size), lengths)
        position = np.arange(total) - starts[owner]
        contributions = (raw[:total].astype(np.int64) & 0x7F) << (7 * position)
        values = np.add.reduceat(contributions, starts)
        count = int(values[0])
        available = terminals.size - 1
        gaps = values[1 : min(count, available) + 1]
        positions = np.cumsum(gaps + 1) - 1
        if positions.size and int(positions[-1]) >= config.size_bits:
            raise TraceError(
                f"RLE stream decodes past the {config.size_bits}-bit register"
            )
        if available < count:
            raise TraceError("truncated RLE stream")
        if int(terminals[count]) + 1 != len(data):
            raise TraceError("trailing bytes after RLE stream")
        layout = layout_for(config)
        plane = np.zeros(layout.num_words * 64, dtype=np.uint8)
        plane[positions] = 1
        return int.from_bytes(
            np.packbits(plane, bitorder="little").tobytes(), "little"
        )

    # -- batched expansion membership (Section 3.3) --------------------

    @staticmethod
    def _address_mask_matrix(
        layout: "NumpyLayout", addresses: "np.ndarray"
    ) -> "np.ndarray":
        """One encode mask per address as a ``(n_addr, n_words)`` matrix
        (row *i* is ``flat_mask(addresses[i])`` in word form)."""
        permuted = layout.tables[0][addresses & 0xFF]
        shift = 8
        for table in layout.tables[1:]:
            permuted |= table[(addresses >> shift) & 0xFF]
            shift += 8
        rows = np.zeros((addresses.size, layout.num_words * 64), dtype=bool)
        index = np.arange(addresses.size)
        for field_offset, chunk_offset, chunk_mask in layout.field_specs:
            rows[index, ((permuted >> chunk_offset) & chunk_mask) + field_offset] = (
                True
            )
        return np.packbits(rows, axis=1, bitorder="little").view(WORD_DTYPE)

    @classmethod
    def _line_mask_matrix(
        cls, config: SignatureConfig, line_addresses: Sequence[int]
    ) -> "np.ndarray":
        """Mask rows for a line batch: one row per line at line
        granularity, 16 rows per line (one per word) at word
        granularity."""
        lines = np.asarray(line_addresses, dtype=np.int64)
        if config.granularity is Granularity.WORD:
            addresses = (
                (lines[:, None] << WORD_TO_LINE_SHIFT)
                | np.arange(WORDS_PER_LINE, dtype=np.int64)
            ).ravel()
        else:
            addresses = lines
        return cls._address_mask_matrix(layout_for(config), addresses)

    @staticmethod
    def _mask_hits(
        config: SignatureConfig,
        mask_matrix: "np.ndarray",
        words: "np.ndarray",
        n_lines: int,
    ) -> "np.ndarray":
        """Membership of every mask row in one broadcast: row ⊆ register.
        Word-granularity rows fold back to per-line any-word flags."""
        hits = ((mask_matrix & words) == mask_matrix).all(axis=1)
        if config.granularity is Granularity.WORD:
            hits = hits.reshape(n_lines, WORDS_PER_LINE).any(axis=1)
        return hits

    def match_lines(
        self, signature: Signature, line_addresses: Sequence[int]
    ) -> List[bool]:
        config = signature.config
        mask_matrix = self._line_mask_matrix(config, line_addresses)
        hits = self._mask_hits(
            config, mask_matrix, self._words_of(signature), len(line_addresses)
        )
        return hits.tolist()

    def match_lines_many(
        self,
        signatures: Sequence[Signature],
        line_addresses: Sequence[int],
    ) -> List[List[bool]]:
        if not signatures:
            return []
        config = signatures[0].config
        mask_matrix = self._line_mask_matrix(config, line_addresses)
        return [
            self._mask_hits(
                config, mask_matrix, self._words_of(signature), len(line_addresses)
            ).tolist()
            for signature in signatures
        ]


#: The codec is stateless (per-decoder state lives on the decoder);
#: one instance serves every numpy signature.
NUMPY_CODEC = NumpyCodec()

#: Hot-path dispatch hook: decode/RLE/expansion read ``_codec`` straight
#: off the signature, so the codec follows ``--sig-backend`` selection.
NumpySignature._codec = NUMPY_CODEC


class NumpySignatureArena(SignatureArena):
    """Signature registers backed by rows of one word matrix.

    The Figure 7 signature *file* as a single ``(n_rows, n_words)``
    allocation: :meth:`make_signature` hands out zeroed row views until
    the matrix is exhausted, then degrades to ordinary allocation.  Row
    residency survives in-place mutation (``add_mask`` write-combining,
    ``add_many``, ``clear``); only wholesale register replacement
    (``_load_flat``) migrates a signature off its row.
    """

    __slots__ = ("_matrix", "_next")

    def __init__(
        self, backend: "SignatureBackend", config: SignatureConfig, rows: int
    ) -> None:
        super().__init__(backend, config, rows)
        layout = layout_for(config)
        self._matrix = np.zeros((rows, layout.num_words), dtype=WORD_DTYPE)
        self._next = 0

    def make_signature(self) -> "NumpySignature":
        signature = NumpySignature(self.config)
        if self._next < self.rows:
            signature._words = self._matrix[self._next]
            self._next += 1
        return signature


class NumpySignatureBank(SignatureBank):
    """An epoch's signatures as one matrix; Equation 1 as a broadcast.

    Rows are stacked into ``(n_rows, n_words)`` read and write matrices;
    :meth:`conflict_flags` ANDs the committed write signature against
    both matrices at once and reduces per-field emptiness over the
    precomputed field word masks — one vectorised pass for *all*
    receivers.
    """

    def __init__(self, config: SignatureConfig) -> None:
        super().__init__(config)
        self._layout = layout_for(config)

    def _row_words(self, signature: Signature) -> "np.ndarray":
        if isinstance(signature, NumpySignature):
            return signature.words()
        return self._layout.words_view(signature.to_flat_int())

    def _row_hits(
        self, matrix: "np.ndarray", committed: "np.ndarray"
    ) -> "np.ndarray":
        """Per-row intersection flags: every V_i field non-empty in the AND."""
        anded = matrix & committed  # (n_rows, n_words)
        # (n_rows, n_fields, n_words) against the field word masks.
        per_field = anded[:, None, :] & self._layout.field_word_masks
        return (per_field != 0).any(axis=2).all(axis=1)

    def _stacked_rows(self) -> "Tuple[np.ndarray, np.ndarray]":
        reads = np.stack([self._row_words(read) for read, _ in self._rows])
        writes = np.stack([self._row_words(write) for _, write in self._rows])
        return reads, writes

    def conflict_flags(self, committed_write: Signature) -> Dict[Any, bool]:
        if not self._rows:
            return {}
        committed = self._row_words(committed_write)
        reads, writes = self._stacked_rows()
        flags = self._row_hits(reads, committed) | self._row_hits(writes, committed)
        return {key: bool(flag) for key, flag in zip(self._keys, flags)}

    def conflict_pairs(
        self, committed_write: Signature
    ) -> Dict[Any, Tuple[bool, bool]]:
        if not self._rows:
            return {}
        committed = self._row_words(committed_write)
        reads, writes = self._stacked_rows()
        read_hits = self._row_hits(reads, committed)
        write_hits = self._row_hits(writes, committed)
        return {
            key: (bool(read_flag), bool(write_flag))
            for key, read_flag, write_flag in zip(
                self._keys, read_hits, write_hits
            )
        }


class NumpySignatureBackend(SignatureBackend):
    """uint64-ndarray storage with vectorised batch kernels."""

    name = "numpy"
    signature_class = NumpySignature
    batched = True
    codec = NUMPY_CODEC

    def make_bank(self, config: SignatureConfig) -> NumpySignatureBank:
        return NumpySignatureBank(config)

    def make_arena(
        self, config: SignatureConfig, rows: int
    ) -> NumpySignatureArena:
        return NumpySignatureArena(self, config, rows)

    def intersect_any(
        self, signature: Signature, others: Sequence[Signature]
    ) -> bool:
        if not others:
            return False
        layout = layout_for(signature.config)

        def row(sig: Signature) -> "np.ndarray":
            if isinstance(sig, NumpySignature):
                return sig.words()
            return layout.words_view(sig.to_flat_int())

        anded = np.stack([row(other) for other in others]) & row(signature)
        per_field = anded[:, None, :] & layout.field_word_masks
        return bool((per_field != 0).any(axis=2).all(axis=1).any())
