"""The signature-backend table: ``pure``, ``packed`` and ``numpy``.

The CLI's ``--sig-backend`` choices, the drivers' ``sig_backend`` knob,
and the conformance suite all *derive* their backend lists from here
instead of repeating literal tuples; unknown lookups raise the typed
:class:`~repro.errors.UnknownBackendError` listing the three names, in
table order.

Backends are stateless kernel bundles, so — unlike schemes, which hold
per-run state and are built fresh each resolve — resolved instances are
cached per name.

numpy is the one optional dependency: when the ``numpy`` backend's
import fails, :func:`resolve_backend` emits **one** warning per process
(through the given ``warn`` callable, e.g. a tracer's ``warn``, or
:mod:`warnings` otherwise) and resolves ``packed`` instead, so
``--sig-backend numpy`` on a numpy-less host runs the identical
``packed`` semantics rather than failing.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Set

from repro.core.backend.base import (
    PackedSignatureBackend,
    SignatureBackend,
)
from repro.errors import UnknownBackendError

#: The backend every params dataclass defaults to — the one whose
#: results every golden artifact was pinned under.
DEFAULT_BACKEND_NAME = "packed"


def _pure() -> SignatureBackend:
    from repro.core.backend.pure import PureSignatureBackend

    return PureSignatureBackend()


def _numpy() -> SignatureBackend:
    # Raises ImportError when numpy is not installed; resolve_backend
    # then degrades to packed.
    from repro.core.backend.numpy_backend import NumpySignatureBackend

    return NumpySignatureBackend()


#: name -> factory, in listing order.  ``pure`` and ``numpy`` import
#: lazily so a default run never pays for storage backends it does not
#: select (and never needs numpy at all).
_BACKENDS: Dict[str, Callable[[], SignatureBackend]] = {
    "pure": _pure,
    "packed": PackedSignatureBackend,
    "numpy": _numpy,
}
#: Resolved instances (backends are stateless; one instance per name).
_INSTANCES: Dict[str, SignatureBackend] = {}
#: Names whose unavailability has already been warned about.
_FALLBACK_WARNED: Set[str] = set()
#: When set, fallback resolution skips the user-facing
#: :func:`warnings.warn` (an explicit ``warn`` callable still fires).
_SUPPRESS_FALLBACK_USER_WARNING = False


def suppress_fallback_warnings(enabled: bool = True) -> bool:
    """Silence the user-facing fallback warning in this process.

    "Once per process" is the right dedupe for a single process, but a
    grid pool spawns many fresh workers, each with an empty
    :data:`_FALLBACK_WARNED` — at ``--jobs 8`` the same degradation
    printed eight times.  The pool initializer calls this in every
    worker (the parent pre-resolves the backends and warns once); only
    the :func:`warnings.warn` path is silenced, so a tracer's ``warn``
    callable still records the degradation event per worker.

    Returns the previous setting so tests can restore it.
    """
    global _SUPPRESS_FALLBACK_USER_WARNING
    previous = _SUPPRESS_FALLBACK_USER_WARNING
    _SUPPRESS_FALLBACK_USER_WARNING = enabled
    return previous


def backend_names() -> List[str]:
    """The backend names, in table order: ``pure``, ``packed``,
    ``numpy``."""
    return list(_BACKENDS)


def resolve_backend(
    name: str, warn: Optional[Callable[[str], None]] = None
) -> SignatureBackend:
    """The (cached) backend instance for ``name``.

    This is the one place backend names turn into objects; a misspelling
    gets the typed :class:`~repro.errors.UnknownBackendError`.  When the
    backend's import fails (only ``numpy`` has an optional dependency),
    ``packed`` is resolved instead after a single per-process warning
    (sent through ``warn`` when given — typically a tracer's ``warn`` —
    or :func:`warnings.warn` otherwise).
    """
    instance = _INSTANCES.get(name)
    if instance is not None:
        return instance
    factory = _BACKENDS.get(name)
    if factory is None:
        raise UnknownBackendError(name, known=backend_names())
    try:
        instance = factory()
    except ImportError as exc:
        message = (
            f"signature backend {name!r} is unavailable ({exc}); "
            f"falling back to {DEFAULT_BACKEND_NAME!r}"
        )
        if name not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(name)
            if warn is not None:
                warn(message)
            elif not _SUPPRESS_FALLBACK_USER_WARNING:
                warnings.warn(message, RuntimeWarning, stacklevel=2)
        return resolve_backend(DEFAULT_BACKEND_NAME, warn=warn)
    _INSTANCES[name] = instance
    return instance
