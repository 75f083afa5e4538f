"""Exception hierarchy for the Bulk reproduction library.

Every error raised by :mod:`repro` derives from :class:`BulkError`, so
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class BulkError(Exception):
    """Base class of all errors raised by the :mod:`repro` library."""


class ConfigurationError(BulkError):
    """An object was constructed with inconsistent or invalid parameters.

    Raised, for example, when a signature's chunk layout does not cover the
    address width, when a permutation is not a bijection, or when a cache
    geometry is not a power of two.
    """


class DeltaInexactError(ConfigurationError):
    """The decode operation delta(S) cannot be exact for this geometry.

    Section 3.2 of the paper requires that ``delta(W)`` produce the *exact*
    set of cache set indices of the addresses in ``W``; this is what makes
    bulk invalidation of dirty lines safe (Section 4.3).  The property holds
    only when all cache-index bits of the (permuted) address fall inside a
    single C_i chunk.  A :class:`~repro.core.bdm.BulkDisambiguationModule`
    refuses to operate with a signature configuration that violates it.
    """


class UnknownSchemeError(ConfigurationError):
    """A scheme name (or substrate) is not in the scheme registry.

    Raised by :func:`repro.spec.resolve_scheme` when asked for a scheme
    that was never registered — typically a misspelled name on the CLI.
    Carries enough context for a helpful message *and* for programmatic
    recovery:

    ``substrate``
        The substrate that was queried (``"tm"``, ``"tls"``, ...).
    ``name``
        The unknown scheme name, or ``None`` when the substrate itself
        is unknown.
    ``known``
        The registered alternatives, in registration order.
    """

    def __init__(self, substrate: str, name=None, known=()) -> None:
        self.substrate = substrate
        self.name = name
        self.known = tuple(known)
        alternatives = ", ".join(self.known) or "none registered"
        if name is None:
            message = (
                f"unknown substrate {substrate!r} (substrates: {alternatives})"
            )
        else:
            message = (
                f"unknown {substrate} scheme {name!r} "
                f"(registered: {alternatives})"
            )
        super().__init__(message)

    def __reduce__(self):
        # Rebuild from the constructor's arguments, so the error crosses
        # a process-pool boundary with its message and attributes intact.
        return (
            type(self), (self.substrate, self.name, self.known), self.__dict__
        )


class UnknownBackendError(ConfigurationError):
    """A signature-backend name is not in the backend registry.

    Raised by :func:`repro.core.backend.resolve_backend` when asked for a
    backend that was never registered — typically a misspelled
    ``--sig-backend`` value on the CLI.  Mirrors
    :class:`UnknownSchemeError`: it carries the unknown ``name`` and the
    registered ``known`` alternatives, in registration order, and the
    message lists them.
    """

    def __init__(self, name: str, known=()) -> None:
        self.name = name
        self.known = tuple(known)
        alternatives = ", ".join(self.known) or "none registered"
        super().__init__(
            f"unknown signature backend {name!r} (registered: {alternatives})"
        )

    def __reduce__(self):
        return type(self), (self.name, self.known), self.__dict__


class SchemeSwapError(BulkError):
    """A runtime scheme hot-swap was requested in an illegal state.

    Raised by :meth:`repro.spec.system.SpecSystemCore.swap_scheme` when a
    swap cannot be honoured: the target is a parameter *variant* (its
    semantics depend on run-level params the live system was not built
    with), the swap was requested away from a commit boundary, or the
    substrate's configuration pins the scheme (TM with SMT co-residency
    requires Bulk's signature contexts for the whole run).  Carries the
    ``substrate``, the current and requested scheme names, and the
    ``reason`` for programmatic recovery.
    """

    def __init__(
        self, substrate: str, current: str, requested: str, reason: str
    ) -> None:
        self.substrate = substrate
        self.current = current
        self.requested = requested
        self.reason = reason
        super().__init__(
            f"cannot swap {substrate} scheme {current!r} -> {requested!r}: "
            f"{reason}"
        )

    def __reduce__(self):
        return (
            type(self),
            (self.substrate, self.current, self.requested, self.reason),
            self.__dict__,
        )


class SetRestrictionError(BulkError):
    """The Set Restriction invariant was violated (Section 4.3/4.5).

    Any dirty lines within one cache set must all belong to a single owner:
    either exactly one speculative thread, or the non-speculative state.
    This error indicates a bug in the caller or in the protocol glue, never
    an expected runtime condition — the BDM resolves impending violations
    (by write-back, preemption or squash) before they occur.
    """


class ProtocolError(BulkError):
    """An illegal coherence-protocol transition or message was attempted."""


class SimulationError(BulkError):
    """The simulator reached an inconsistent state (e.g. deadlock)."""


class TraceError(BulkError):
    """A memory-event trace is malformed or internally inconsistent."""


class OverflowAreaError(BulkError):
    """An overflow-area operation was invalid (e.g. double deallocation)."""
