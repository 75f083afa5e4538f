"""Run-length encoding of signatures for commit broadcasts (Section 6.1).

Signatures are sparse — a committing transaction's write signature has one
set bit per field per distinct chunk value, so a 2 Kbit S14 register with a
22-line write set carries at most 44 set bits.  The paper compresses
signatures with RLE before broadcasting and reports the resulting average
sizes in Table 8 (e.g. S14: 2048 bits full, 363 bits average compressed).

The codec here is a gap encoding, a standard hardware-friendly RLE variant:
the lengths of the zero runs between consecutive set bits are emitted as
LEB128-style varints (7 payload bits per byte plus a continuation bit),
preceded by a varint set-bit count.  It is lossless — the round-trip
property is part of the test suite — and its measured compressed sizes are
what the bandwidth experiments (Figures 13 and 14) account for commit
packets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.backend.codec import note_codec
from repro.core.signature import Signature
from repro.core.signature_config import SignatureConfig
from repro.errors import TraceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.backend.base import SignatureBackend


def _varint_encode(value: int, out: bytearray) -> None:
    """Append a LEB128 varint."""
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _varint_decode(data: bytes, offset: int) -> tuple:
    """Decode one varint, returning (value, next_offset)."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise TraceError("truncated RLE stream")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


def rle_encode(signature: Signature) -> bytes:
    """Compress a signature into its commit-packet wire form.

    Memoised per configuration on the flat register value (the encoding
    is a pure function of it): a TLS commit often sends the write
    signature its child's spawn flush already encoded, and a TM thread
    whose transactions write the same lines sends the same signature
    (see ``DEFAULT_RLE_CAPACITY`` in :mod:`repro.core.memo`).  The
    returned ``bytes`` object is immutable, so sharing it between hits
    is safe.
    """
    cache = signature.config._rle_cache
    flat = signature.to_flat_int()
    data = cache.get(flat)
    if data is None:
        codec = signature._codec
        if codec is not None:
            note_codec("rle_vectorised")
            data = codec.rle_encode(signature)
        else:
            note_codec("fallback")
            data = rle_encode_scalar(signature)
        cache.put(flat, data)
    return data


def rle_encode_scalar(signature: Signature) -> bytes:
    """The scalar reference encoder (codec kernels must match it)."""
    positions: List[int] = list(signature.set_bit_positions())
    out = bytearray()
    _varint_encode(len(positions), out)
    previous = -1
    for position in positions:
        _varint_encode(position - previous - 1, out)
        previous = position
    return bytes(out)


def rle_decode(
    config: SignatureConfig,
    data: bytes,
    backend: "Optional[SignatureBackend]" = None,
) -> Signature:
    """Rebuild a signature from :func:`rle_encode` output.

    ``backend`` selects the storage of the returned signature (default:
    packed) and, with it, the codec that parses the stream — a backend
    with vectorised kernels decodes the whole varint stream in one pass,
    accepting and rejecting byte-identically to the scalar reference.
    """
    signature_class = Signature if backend is None else backend.signature_class
    codec = signature_class._codec
    if codec is not None:
        note_codec("rle_decode_vectorised")
        flat = codec.rle_decode(config, data)
    else:
        note_codec("fallback")
        flat = rle_decode_scalar_flat(config, data)
    return signature_class.from_flat_int(config, flat)


def rle_decode_scalar_flat(config: SignatureConfig, data: bytes) -> int:
    """The scalar reference decoder, returning the flat register value
    (codec kernels must match it, errors included)."""
    count, offset = _varint_decode(data, 0)
    flat = 0
    position = -1
    for _ in range(count):
        gap, offset = _varint_decode(data, offset)
        position += gap + 1
        if position >= config.size_bits:
            raise TraceError(
                f"RLE stream decodes past the {config.size_bits}-bit register"
            )
        flat |= 1 << position
    if offset != len(data):
        raise TraceError("trailing bytes after RLE stream")
    return flat


def rle_size_bits(signature: Signature) -> int:
    """Compressed size of a signature in bits (Table 8's metric)."""
    return 8 * len(rle_encode(signature))
