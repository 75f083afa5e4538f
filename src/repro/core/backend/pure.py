"""The ``pure`` backend: per-field-list storage, the reference semantics.

This is the signature as the paper draws it — one ``V_i`` bit vector per
chunk, kept as a Python list — and as the property tests' list-path
reference implementations compute it.  It is deliberately the simplest
possible storage: every operation works field by field, the flat wire
format is derived (and memoised) by packing the fields at their layout
offsets.  It exists to referee the other backends, not to be fast.
"""

from __future__ import annotations

from typing import List

from repro.core.backend.base import SignatureBackend
from repro.core.signature import Signature
from repro.core.signature_config import SignatureConfig


class PureSignature(Signature):
    """A signature stored as its per-field bit-vector list.

    ``_fields`` is the storage; the inherited ``_flat`` slot becomes a
    memo of the packed wire format, ``None`` while stale.
    """

    __slots__ = ("_fields",)

    backend_name = "pure"

    def __init__(self, config: SignatureConfig) -> None:
        super().__init__(config)
        self._fields: List[int] = [0] * config.layout.num_fields

    def _load_flat(self, flat: int) -> None:
        self._flat = flat
        self._fields = self.fields

    def add_mask(self, mask: int) -> None:
        if not mask:
            return
        layout = self.config.layout
        fields = self._fields
        for index, (offset, size) in enumerate(
            zip(layout.field_offsets, layout.field_sizes)
        ):
            part = (mask >> offset) & ((1 << size) - 1)
            if part:
                fields[index] |= part
        self._flat = None

    def clear(self) -> None:
        self._fields = [0] * self.config.layout.num_fields
        self._flat = 0

    def to_flat_int(self) -> int:
        if self._flat is None:
            flat = 0
            for offset, field in zip(
                self.config.layout.field_offsets, self._fields
            ):
                flat |= field << offset
            self._flat = flat
        return self._flat

    def is_empty(self) -> bool:
        """Per-field emptiness, straight off the field list."""
        return any(field == 0 for field in self._fields)

    def intersects(self, other: Signature) -> bool:
        """The original per-field semantics: AND field by field, hit iff
        every field's intersection is non-empty."""
        self._check_compatible(other)
        return all(x & y for x, y in zip(self._fields, other.fields))


class PureSignatureBackend(SignatureBackend):
    """Per-field-list storage; the reference the others are judged by."""

    name = "pure"
    signature_class = PureSignature
