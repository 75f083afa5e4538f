"""Selectable signature storage backends (``pure | packed | numpy``).

The public surface:

* :func:`resolve_backend` / :func:`backend_names` — the fixed backend
  table (unknown names raise the typed
  :class:`~repro.errors.UnknownBackendError`; ``numpy`` without numpy
  installed degrades to ``packed`` with one warning).
* :class:`SignatureBackend` — the strategy object a backend implements:
  a :class:`~repro.core.signature.Signature` subclass over its storage
  plus an epoch-level :class:`SignatureBank` for batched commit-time
  disambiguation.
* ``DEFAULT_BACKEND_NAME`` — ``"packed"``, the big-int storage the base
  :class:`~repro.core.signature.Signature` implements and the golden
  artifacts are pinned under.

Every backend is bit-compatible with every other — the conformance
suite (``tests/core/test_backend_conformance.py``) runs one shared
battery over each name in :func:`backend_names`.  See
``docs/BACKENDS.md``.
"""

from repro.core.backend.base import (
    PackedSignatureBackend,
    SignatureArena,
    SignatureBackend,
    SignatureBank,
)
from repro.core.backend.codec import (
    CodecKernels,
    codec_stats,
    reset_codec_stats,
)
from repro.core.backend.registry import (
    DEFAULT_BACKEND_NAME,
    backend_names,
    resolve_backend,
    suppress_fallback_warnings,
)

__all__ = [
    "DEFAULT_BACKEND_NAME",
    "CodecKernels",
    "PackedSignatureBackend",
    "SignatureArena",
    "SignatureBackend",
    "SignatureBank",
    "backend_names",
    "codec_stats",
    "reset_codec_stats",
    "resolve_backend",
    "suppress_fallback_warnings",
]
