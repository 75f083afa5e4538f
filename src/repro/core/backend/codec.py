"""The codec seam: which kernels serve delta decode, RLE, and expansion.

Sections 3.2–3.3 define the commit/squash codec — ``delta`` decode, the
RLE commit-packet encoding, and signature expansion — as wide
combinational logic evaluated over all fields at once.  The scalar
Python implementations (:mod:`repro.core.decode`, :mod:`repro.core.rle`,
:mod:`repro.core.expansion`) walk that logic bit by bit; a *codec*
bundles vectorised replacements that evaluate whole bit planes per call,
which is both the faithful rendering of the hardware and the fast one.

Dispatch is by signature storage backend: every
:class:`~repro.core.signature.Signature` subclass carries a ``_codec``
class attribute (``None`` for the scalar reference backends; the
vectorised :class:`~repro.core.backend.numpy_backend.NumpyCodec` for
``numpy`` signatures), so the codec a commit or squash uses follows the
``--sig-backend`` selection through the one existing registry — no
second registry, no new CLI surface, and a numpy-less host degrades to
the scalar path with the backend fallback's single warning.

The scalar implementations stay the reference: every codec kernel must
be **bit-exact** against them (encodings byte for byte, masks bit for
bit, matched line sets element for element), which the conformance
battery asserts for every registered backend that ships a codec.

Path counters
-------------
Mirroring :mod:`repro.core.memo`, the module keeps per-process counters
of which path served each codec operation:

* ``decode_vectorised`` / ``rle_vectorised`` / ``rle_decode_vectorised``
  / ``expansion_vectorised`` — a codec kernel computed the result;
* ``fallback`` — the scalar reference path served it (no codec on the
  signature's backend, or a batch too small to profit).

They are advisory, out of the default metrics snapshots (golden runs pin
``metrics.json`` byte for byte), and are materialised on demand by
:func:`repro.obs.record_codec_metrics` exactly like the memo counters.
Counting happens only where a result is actually *computed* — memo hits
(:class:`~repro.core.decode.CachedDecoder`, the RLE cache) touch neither
counter, so the numbers read as "codec computes", not "codec calls".
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.decode import DeltaDecoder
    from repro.core.signature import Signature
    from repro.core.signature_config import SignatureConfig

__all__ = [
    "CodecKernels",
    "codec_stats",
    "note_codec",
    "reset_codec_stats",
    "EXPANSION_VECTOR_MIN_LINES",
]

#: Below this many candidate lines a vectorised expansion would spend
#: more on array setup than the scalar loop spends on the whole test;
#: the scalar path serves such batches (bit-identically) and the
#: ``fallback`` counter records it.
EXPANSION_VECTOR_MIN_LINES = 8

_PATHS = (
    "decode_vectorised",
    "rle_vectorised",
    "rle_decode_vectorised",
    "expansion_vectorised",
    "fallback",
)

_COUNTS: Dict[str, int] = {path: 0 for path in _PATHS}


def note_codec(path: str) -> None:
    """Count one codec compute served by ``path`` (see module docs)."""
    _COUNTS[path] += 1


def codec_stats() -> Dict[str, int]:
    """Per-process codec path counters, keyed by path name, sorted."""
    return dict(sorted(_COUNTS.items()))


def reset_codec_stats() -> None:
    """Zero every codec path counter (bench/test isolation helper)."""
    for path in _PATHS:
        _COUNTS[path] = 0


class CodecKernels:
    """The kernel surface a vectorised codec implements.

    One stateless instance per backend (referenced from both the
    backend's ``codec`` attribute and its Signature subclass's
    ``_codec``).  Every method must be bit-exact against the scalar
    reference implementation named in its docstring.
    """

    #: Registry name of the backend whose signatures this codec serves.
    name: str = "scalar"

    def delta_decode(self, decoder: "DeltaDecoder", signature: "Signature") -> int:
        """delta(S) as an int cache-set bitmask — must equal
        :meth:`repro.core.decode.DeltaDecoder.decode_scalar`."""
        raise NotImplementedError

    def rle_encode(self, signature: "Signature") -> bytes:
        """The commit-packet wire bytes — must equal the scalar gap
        encoding of :func:`repro.core.rle.rle_encode`."""
        raise NotImplementedError

    def rle_decode(self, config: "SignatureConfig", data: bytes) -> int:
        """Wire bytes back to the flat register value — must accept and
        reject exactly what the scalar :func:`repro.core.rle.rle_decode`
        does, with the same typed errors."""
        raise NotImplementedError

    def match_lines(
        self, signature: "Signature", line_addresses: Sequence[int]
    ) -> List[bool]:
        """Batched :func:`repro.core.expansion.line_may_be_in` — one flag
        per line address, in order."""
        raise NotImplementedError

    def match_lines_many(
        self,
        signatures: Sequence["Signature"],
        line_addresses: Sequence[int],
    ) -> List[List[bool]]:
        """The bank form of :meth:`match_lines`: one flag row per
        signature over a shared line-address vector (the line→mask
        matrix is built once).  Base implementation loops
        :meth:`match_lines`; vectorised codecs share the mask matrix."""
        return [
            self.match_lines(signature, line_addresses)
            for signature in signatures
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"
