"""One run's options: the single definition of every run option.

The CLI builds a :class:`RunConfig` from its flags (one flag per field),
the grid-point builders and the ``run_*_comparison`` drivers build one
from their keyword arguments, and the substrate systems take it as
``config=`` — :meth:`~repro.spec.system.SpecSystemCore._init_spec_core`
builds the bus and resolves the signature backend from it.  Each field
is validated once, here, with the typed errors of the grammar it names.

Two encoding rules live here and nowhere else:

* only non-default fields become grid knobs (:meth:`RunConfig.knobs`),
  so a default run keeps the cache key — and the golden artifacts — it
  had before any run option existed;
* the options in :data:`LABEL_HIDDEN` stay out of grid point labels
  while still reaching cache keys: ``sig_backend`` selects a storage
  strategy, and every backend is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict

from repro.core.backend import DEFAULT_BACKEND_NAME, backend_names
from repro.errors import UnknownBackendError
from repro.interconnect.config import InterconnectConfig


@dataclass(frozen=True)
class RunConfig:
    """The run options of one simulation, validated at construction.

    ``None`` for any field means its default.
    """

    #: Interconnect spec (:mod:`repro.interconnect.config` grammar),
    #: stored canonical: ``"legacy"`` or
    #: ``"timed:latency=N,policy=P,window=N"``.
    bus: str = "legacy"
    #: Signature storage backend, by :func:`repro.core.backend.backend_names`
    #: name.
    sig_backend: str = DEFAULT_BACKEND_NAME

    def __post_init__(self) -> None:
        for option in fields(self):
            if getattr(self, option.name) is None:
                object.__setattr__(self, option.name, option.default)
        object.__setattr__(
            self, "bus", InterconnectConfig.parse(self.bus).spec()
        )
        if self.sig_backend not in backend_names():
            raise UnknownBackendError(self.sig_backend, known=backend_names())

    def knobs(self) -> Dict[str, Any]:
        """The non-default fields by name — the grid knobs and driver
        keywords that rebuild this configuration."""
        return {
            option.name: getattr(self, option.name)
            for option in fields(self)
            if getattr(self, option.name) != option.default
        }


#: The names of every run option, for splitting them out of other
#: keyword arguments.
RUN_OPTIONS = tuple(option.name for option in fields(RunConfig))

#: Run options that grid point labels omit (cache payloads keep them).
LABEL_HIDDEN = frozenset({"sig_backend"})

#: The configuration of a run given no options.
DEFAULT_RUN_CONFIG = RunConfig()
