"""Signature storage backends: the seam between algebra and storage.

The signature *algebra* (Table 1) is fixed by the paper; how a register
is **stored** is an implementation choice — one big Python integer, a
per-field list, a packed ``uint64`` ndarray, eventually native or GPU
memory.  A :class:`SignatureBackend` bundles one storage choice:

* a :class:`~repro.core.signature.Signature` subclass implementing the
  full public surface over that storage, and
* an epoch-level :class:`SignatureBank` that holds many signatures at
  once so commit-time disambiguation against *every* receiver can be a
  batched operation instead of a per-receiver loop.

Backends are interchangeable **bit for bit**: every operation must
produce results identical to the packed reference, which is what the
conformance suite (``tests/core/test_backend_conformance.py``) asserts
for every backend in :func:`repro.core.backend.backend_names`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple, Type

from repro.core.signature import Signature
from repro.core.signature_config import SignatureConfig


class SignatureBank:
    """All of an epoch's (R, W) signature pairs, disambiguated at once.

    One row per receiver: its read and write signatures, keyed by an
    opaque caller identity (a processor id, a task id).  The payoff
    operation is :meth:`conflict_flags` — Equation 1's
    ``W_C ∩ R_i ≠ ∅ ∨ W_C ∩ W_i ≠ ∅`` evaluated for **every** row
    against one committed write signature.

    This base implementation is the reference loop over
    :meth:`~repro.core.signature.Signature.intersects`; the numpy
    backend's bank replaces it with one broadcast AND + ``any``
    reduction over an ``(n_rows, n_words)`` matrix.

    The flags are *exact* with respect to the signatures: a ``False``
    row provably has empty intersections with both registers, so callers
    may use the bank as a negative pre-filter without changing results.
    """

    def __init__(self, config: SignatureConfig) -> None:
        self.config = config
        self._keys: List[Any] = []
        self._rows: List[Tuple[Signature, Signature]] = []

    def add_row(
        self, key: Any, read_signature: Signature, write_signature: Signature
    ) -> None:
        """Append one receiver's (R, W) pair under ``key``."""
        self._keys.append(key)
        self._rows.append((read_signature, write_signature))

    def __len__(self) -> int:
        return len(self._rows)

    def keys(self) -> List[Any]:
        """Row keys, in insertion order."""
        return list(self._keys)

    def conflict_flags(self, committed_write: Signature) -> Dict[Any, bool]:
        """``key -> (W_C ∩ R ≠ ∅) ∨ (W_C ∩ W ≠ ∅)`` for every row."""
        return {
            key: committed_write.intersects(read)
            or committed_write.intersects(write)
            for key, (read, write) in zip(self._keys, self._rows)
        }

    def conflict_pairs(
        self, committed_write: Signature
    ) -> Dict[Any, Tuple[bool, bool]]:
        """``key -> (W_C ∩ R ≠ ∅, W_C ∩ W ≠ ∅)`` for every row.

        The split form of :meth:`conflict_flags`: the read flag is the
        RAW half of Equation 1 and the write flag the WAW half, so
        commit paths that classify conflict causes get both from the
        same batched pass.
        """
        return {
            key: (
                committed_write.intersects(read),
                committed_write.intersects(write),
            )
            for key, (read, write) in zip(self._keys, self._rows)
        }


class SignatureArena:
    """A block of signature registers allocated as one unit.

    Section 4.5's BDM is a *file* of signature registers — one
    allocation holding every version context's R/W pair.  An arena
    models that: a fixed number of registers requested up front, handed
    out by :meth:`make_signature`.  This base implementation simply
    allocates per call (packed and pure registers are individual Python
    objects; there is nothing to pool); the numpy backend's arena backs
    the registers with rows of one ``(n_rows, n_words)`` matrix so a
    whole grid point's signatures share a single allocation.

    A request beyond ``rows`` degrades to plain allocation — callers
    never have to size the arena exactly.
    """

    __slots__ = ("backend", "config", "rows")

    def __init__(
        self, backend: "SignatureBackend", config: SignatureConfig, rows: int
    ) -> None:
        self.backend = backend
        self.config = config
        self.rows = rows

    def make_signature(self) -> Signature:
        """A fresh, empty register (arena-backed while rows remain)."""
        return self.backend.make_signature(self.config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.backend.name!r}, "
            f"{self.config.name}, rows={self.rows})"
        )


class SignatureBackend:
    """One signature storage strategy: a Signature class plus its bank.

    Subclasses set :attr:`name` and :attr:`signature_class` and, when
    the storage supports it, override the batch surface
    (:meth:`make_bank`, :meth:`intersect_any`).  :attr:`batched` tells
    schemes whether the bank is genuinely vectorised — the commit paths
    only build banks for backends that profit from them.
    """

    #: Registry name (``packed``, ``pure``, ``numpy``, ...).
    name: str = "packed"
    #: The Signature subclass implementing this backend's storage.
    signature_class: Type[Signature] = Signature
    #: Whether :meth:`make_bank` returns a genuinely batched bank (the
    #: commit pre-filter is only worth building when it does).
    batched: bool = False
    #: The backend's vectorised codec kernels
    #: (:class:`repro.core.backend.codec.CodecKernels`) for delta
    #: decode, RLE, and expansion membership; ``None`` keeps the scalar
    #: reference paths.  Mirrored on the Signature subclass as
    #: ``_codec`` so hot paths dispatch without a registry lookup.
    codec = None

    def make_signature(self, config: SignatureConfig) -> Signature:
        """A fresh, empty signature register."""
        return self.signature_class(config)

    def make_arena(self, config: SignatureConfig, rows: int) -> SignatureArena:
        """An arena of ``rows`` registers allocated as one unit."""
        return SignatureArena(self, config, rows)

    def from_addresses(
        self, config: SignatureConfig, addresses: Iterable[int]
    ) -> Signature:
        """Encode a whole address set at once."""
        return self.signature_class.from_addresses(config, addresses)

    def from_flat_int(self, config: SignatureConfig, flat: int) -> Signature:
        """Rebuild a signature from its wire format."""
        return self.signature_class.from_flat_int(config, flat)

    def make_bank(self, config: SignatureConfig) -> SignatureBank:
        """A fresh, empty epoch bank for this storage."""
        return SignatureBank(config)

    def intersect_any(
        self, signature: Signature, others: Sequence[Signature]
    ) -> bool:
        """Whether ``signature`` intersects *any* of ``others``."""
        return any(signature.intersects(other) for other in others)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class PackedSignatureBackend(SignatureBackend):
    """The default backend: big-int storage — the base class itself."""

    name = "packed"
    signature_class = Signature
