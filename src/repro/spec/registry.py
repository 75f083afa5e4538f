"""The scheme table: one authoritative, ordered list per substrate.

The paper's point (Sections 1 and 4.5) is that a single set of signature
operations serves TLS, TM, and checkpointed execution.  The table below
is where the code says the same thing once: it holds every substrate's
disambiguation schemes, and the CLI, the experiment drivers, the grid
runner, and the report headers all *derive* their scheme lists from it
instead of repeating literal tuples.

Table order is run and report order (the golden artifacts pin it byte
for byte):

* TM: Eager, Lazy, Bulk, then the Bulk-Partial variant (Figure 11);
* TLS: Eager, Lazy, Bulk (Partial Overlap on), BulkNoOverlap (Figure 10);
* checkpoint: Exact (enumerated-log baseline), Bulk (signature BDM).

A *variant* is a setting of another scheme rather than an independent
baseline: today only TM's ``Bulk-Partial``, which is
``BulkScheme(partial_rollback=True)``.  Variants come last in their
substrate's list and are listed only when ``include_variants`` is
requested, as the CLI's ``--partial`` flag appends ``Bulk-Partial``
after the core three.

Adding a scheme is one :class:`SchemeEntry` in :data:`_SCHEMES`.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

from repro.errors import UnknownSchemeError


class SchemeEntry(NamedTuple):
    """One scheme: its name, a factory for fresh instances, and whether
    it is a variant.

    ``factory`` takes no arguments; schemes hold per-run state, so every
    resolution builds a new instance.
    """

    name: str
    factory: Callable[[], Any]
    variant: bool = False


def _scheme(module: str, cls: str, **kwargs: Any) -> Callable[[], Any]:
    """A factory for ``module.cls(**kwargs)``.  The module is imported
    on first call, because every scheme module imports this package for
    its base class."""

    def factory() -> Any:
        return getattr(importlib.import_module(module), cls)(**kwargs)

    return factory


#: substrate -> its schemes, in run and report order.
_SCHEMES: Dict[str, Tuple[SchemeEntry, ...]] = {
    "tm": (
        SchemeEntry("Eager", _scheme("repro.tm.eager", "EagerScheme")),
        SchemeEntry("Lazy", _scheme("repro.tm.lazy", "LazyScheme")),
        SchemeEntry("Bulk", _scheme("repro.tm.bulk", "BulkScheme")),
        SchemeEntry(
            "Bulk-Partial",
            _scheme("repro.tm.bulk", "BulkScheme", partial_rollback=True),
            variant=True,
        ),
    ),
    "tls": (
        SchemeEntry("Eager", _scheme("repro.tls.eager", "TlsEagerScheme")),
        SchemeEntry("Lazy", _scheme("repro.tls.lazy", "TlsLazyScheme")),
        SchemeEntry(
            "Bulk",
            _scheme("repro.tls.bulk", "TlsBulkScheme", partial_overlap=True),
        ),
        SchemeEntry(
            "BulkNoOverlap",
            _scheme("repro.tls.bulk", "TlsBulkScheme", partial_overlap=False),
        ),
    ),
    "checkpoint": (
        SchemeEntry(
            "Exact",
            _scheme("repro.checkpoint.schemes", "ExactCheckpointScheme"),
        ),
        SchemeEntry(
            "Bulk", _scheme("repro.checkpoint.schemes", "BulkCheckpointScheme")
        ),
    ),
}


def _substrate_entries(substrate: str) -> Tuple[SchemeEntry, ...]:
    entries = _SCHEMES.get(substrate)
    if entries is None:
        raise UnknownSchemeError(substrate, known=list(_SCHEMES))
    return entries


def scheme_entries(
    substrate: str, include_variants: bool = False
) -> List[SchemeEntry]:
    """``substrate``'s schemes in table order; variants (``Bulk-Partial``)
    only when ``include_variants`` is set.  Unknown substrates raise
    :class:`~repro.errors.UnknownSchemeError`."""
    return [
        entry
        for entry in _substrate_entries(substrate)
        if include_variants or not entry.variant
    ]


def scheme_names(substrate: str, include_variants: bool = False) -> List[str]:
    """Like :func:`scheme_entries`, but the names."""
    return [entry.name for entry in scheme_entries(substrate, include_variants)]


def resolve_scheme(substrate: str, name: str) -> Any:
    """A fresh scheme instance for (substrate, name), variants included.

    This is the one place scheme names turn into objects; a misspelling
    gets the typed :class:`~repro.errors.UnknownSchemeError`, listing
    the substrate's schemes.
    """
    entries = _substrate_entries(substrate)
    for entry in entries:
        if entry.name == name:
            return entry.factory()
    raise UnknownSchemeError(
        substrate, name, known=[entry.name for entry in entries]
    )
