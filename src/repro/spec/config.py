"""One run's options: the single definition of every run option.

The CLI builds a :class:`RunConfig` from its flags (one flag per field),
the grid-point builders and the ``run_*_comparison`` drivers build one
from their keyword arguments, and the substrate systems take it as
``config=`` — :meth:`~repro.spec.system.SpecSystemCore._init_spec_core`
builds the bus, resolves the signature backend and attaches the swap
policy from it.  Each field is validated once, here, with the typed
errors of the grammar it names.

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
from typing import Any, Dict, Optional

from repro.core.backend import DEFAULT_BACKEND_NAME, backend_entry
from repro.errors import ConfigurationError
from repro.interconnect.config import InterconnectConfig
from repro.spec.policy import parse_policy


@dataclass(frozen=True)
class RunConfig:
    """The run options of one simulation, validated at construction.

    ``None`` for any field means its default.
    """

    #: Interconnect spec (:mod:`repro.interconnect.config` grammar),
    #: stored canonical: ``"legacy"`` or
    #: ``"timed:latency=N,policy=P,window=N"``.
    bus: str = "legacy"
    #: Signature storage backend, by :mod:`repro.core.backend` registry
    #: name.
    sig_backend: str = DEFAULT_BACKEND_NAME
    #: Scheme hot-swap policy spec (:mod:`repro.spec.policy` grammar);
    #: ``"static"`` never swaps.
    policy: str = "static"
    #: Stored trace id to replay instead of generating the workload.
    trace: Optional[str] = None
    #: The store holding ``trace``: a :class:`~repro.trace.TraceStore`
    #: or its directory.
    trace_store: Any = None

    def __post_init__(self) -> None:
        for option in fields(self):
            if getattr(self, option.name) is None:
                object.__setattr__(self, option.name, option.default)
        object.__setattr__(
            self, "bus", InterconnectConfig.parse(self.bus).spec()
        )
        backend_entry(self.sig_backend)
        parse_policy(self.policy)
        if (self.trace is None) != (self.trace_store is None):
            missing = (
                "trace_store (--trace-store)" if self.trace_store is None
                else "trace (--trace-id)"
            )
            raise ConfigurationError(
                f"trace replay needs both a trace id and its store; "
                f"missing {missing}"
            )

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
