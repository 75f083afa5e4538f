"""The unified speculative-execution core.

The paper's thesis is that one set of bulk signature operations serves
three speculative environments — TM, TLS, and checkpointed execution
(Sections 1 and 4.5).  This package is where the code expresses that
unity:

* :mod:`repro.spec.registry` — the fixed scheme table every scheme list
  in the repo derives from (:func:`scheme_names`, :func:`scheme_entries`,
  :func:`resolve_scheme`);
* :mod:`repro.spec.scheme` — :class:`SpecScheme`, the hook base that
  ``TmScheme``, ``TlsScheme``, and ``CheckpointScheme`` extend;
* :mod:`repro.spec.stats` — :class:`SpecStats`, the stats base holding
  the shared derived metrics exactly once;
* :mod:`repro.spec.system` — :class:`SpecSystemCore`, the bus wiring,
  metrics, and trace-event plumbing the substrate simulators share;
* :mod:`repro.spec.config` — :class:`RunConfig`, the one definition of
  the run options (bus, signature backend) every layer
  threads from the CLI to the systems.

See ``docs/ARCHITECTURE.md`` for the hook lifecycle and the recipe for
adding a fourth substrate or a new scheme.
"""

from repro.spec.config import RunConfig
from repro.spec.registry import (
    SchemeEntry,
    resolve_scheme,
    scheme_entries,
    scheme_names,
)
from repro.spec.scheme import SpecScheme
from repro.spec.stats import SpecStats
from repro.spec.system import SpecSystemCore

__all__ = [
    "RunConfig",
    "SchemeEntry",
    "SpecScheme",
    "SpecStats",
    "SpecSystemCore",
    "resolve_scheme",
    "scheme_entries",
    "scheme_names",
]
