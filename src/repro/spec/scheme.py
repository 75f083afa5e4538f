"""The common ancestor of every substrate's disambiguation scheme.

Each substrate refines this contract with its own hook signatures —
:class:`~repro.tm.conflict.TmScheme` speaks in transactions and
processors, :class:`~repro.tls.conflict.TlsScheme` in tasks, and
:class:`~repro.checkpoint.schemes.CheckpointScheme` in checkpoints — but
the *shape* of a scheme is the same everywhere, and the shared pieces
live here:

``name``
    The scheme's display name, used as the tracer context key (so traced
    bus bytes aggregate per scheme), as the stats-dictionary key in every
    comparison object, and as the scheme-table lookup key.

``setup_processor``
    Called once per execution unit before the run starts, to allocate
    per-processor scheme state (Bulk allocates a BDM here).

``commit_packet``
    The one hook every substrate must implement: charge the commit
    packet to the bus and return its size in bytes.  This is where the
    paper's signature-vs-enumeration bandwidth story (Figure 14) lives.

``squash_cleanup``
    Discard the squashed unit's speculative cache state.

The hook *lifecycle* — which substrate system calls which hook when — is
documented in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import abc
from typing import Any


class SpecScheme(abc.ABC):
    """Base class of TM, TLS, and checkpoint disambiguation schemes."""

    #: Human-readable scheme name ("Eager", "Lazy", "Bulk", ...).
    name: str = "abstract"

    def setup_processor(self, system: Any, proc: Any) -> None:
        """Allocate per-processor scheme state before the run starts."""

    @abc.abstractmethod
    def commit_packet(self, system: Any, unit: Any) -> int:
        """Charge the commit packet to the bus; return its size in bytes."""

    def squash_cleanup(self, system: Any, *args: Any) -> None:
        """Discard a squashed unit's speculative cache state."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
