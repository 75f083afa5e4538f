"""Per-transaction speculative state: one exact record, and sections.

The transaction keeps one exact **record** of what it has done so far:

* a **write log** of (word address → value), the authoritative speculative
  data, applied to architectural memory at commit and discarded on squash;
* exact read/write **granule sets** (line addresses in TM) — the actual
  mechanism of the exact schemes and the false-positive oracle for Bulk.

Transactions are divided into *sections* by nested begin/end markers
(Section 6.2.1, Figure 8): code before an inner transaction, the inner
transaction, code after it, and so on.  Without partial rollback the whole
transaction is one section and nested markers only adjust depth.  A
section marks where it starts and holds a snapshot of the record at that
point, which is what a partial rollback to it restores; under
Bulk-Partial it also carries its own read and write
:class:`~repro.core.signature.Signature`, because Equation 1 is evaluated
per section.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.backend.base import SignatureBackend
from repro.core.bdm import VersionContext
from repro.core.signature import Signature
from repro.core.signature_config import SignatureConfig
from repro.errors import SimulationError
from repro.mem.address import LINE_SHIFT, WORD_SHIFT

#: An immutable copy of a transaction's record: (read granules, write
#: granules, write-log items in insertion order).
Snapshot = Tuple[FrozenSet[int], FrozenSet[int], Tuple[Tuple[int, int], ...]]

_EMPTY: Snapshot = (frozenset(), frozenset(), ())


class Section:
    """Where one section of a (possibly nested) transaction starts."""

    __slots__ = (
        "start_cursor",
        "depth_at_start",
        "snapshot",
        "read_signature",
        "write_signature",
    )

    def __init__(
        self,
        start_cursor: int,
        signature_config: Optional[SignatureConfig],
        depth_at_start: int = 1,
        backend: Optional[SignatureBackend] = None,
        snapshot: Snapshot = _EMPTY,
    ) -> None:
        #: Trace cursor where the section begins (restart target).
        self.start_cursor = start_cursor
        #: Transaction nesting depth at the section's start, restored on
        #: partial rollback.
        self.depth_at_start = depth_at_start
        #: The transaction's record when the section began.
        self.snapshot = snapshot
        self.read_signature: Optional[Signature] = None
        self.write_signature: Optional[Signature] = None
        if signature_config is not None:
            make = Signature if backend is None else backend.make_signature
            self.read_signature = make(signature_config)
            self.write_signature = make(signature_config)


class TxnState:
    """Speculative state of the transaction a processor is executing."""

    __slots__ = (
        "txn_id",
        "depth",
        "sections",
        "attempts",
        "signature_config",
        "sig_backend",
        "start_cursor",
        "read_granules",
        "write_granules",
        "write_log",
        "context",
    )

    def __init__(
        self,
        txn_id: int,
        start_cursor: int,
        signature_config: Optional[SignatureConfig] = None,
        sig_backend: Optional[SignatureBackend] = None,
    ) -> None:
        self.txn_id = txn_id
        self.depth = 1
        #: Per-section signature registers' configuration (Bulk-Partial
        #: only; ``None`` gives sections no registers).
        self.signature_config = signature_config
        self.sig_backend = sig_backend
        #: Cursor of the outermost TX_BEGIN event; restarts resume at
        #: ``start_cursor + 1`` (the begin overhead is charged as part of
        #: the squash overhead instead of re-executing the marker).
        self.start_cursor = start_cursor
        self.sections: List[Section] = [
            Section(start_cursor + 1, signature_config, backend=sig_backend)
        ]
        self.attempts = 1
        #: The exact record of the whole transaction (line granules).
        self.read_granules: Set[int] = set()
        self.write_granules: Set[int] = set()
        self.write_log: Dict[int, int] = {}
        #: The BDM version context holding the transaction's signatures
        #: (Bulk only; set by the scheme as the transaction begins).
        self.context: Optional[VersionContext] = None

    # ------------------------------------------------------------------
    # Section management
    # ------------------------------------------------------------------

    def push_section(self, cursor: int) -> None:
        """Open a new section (partial-rollback mode, at nesting edges)."""
        self.sections.append(
            Section(
                cursor,
                self.signature_config,
                depth_at_start=self.depth,
                backend=self.sig_backend,
                snapshot=(
                    frozenset(self.read_granules),
                    frozenset(self.write_granules),
                    tuple(self.write_log.items()),
                ),
            )
        )

    def discard_sections_from(self, index: int) -> int:
        """Partial rollback: drop sections ``index`` onward.

        Returns the restart cursor (the first discarded section's start);
        the nesting depth is rewound to that section's starting depth and
        the record to its snapshot — the union of the kept sections, later
        stores winning.  A fresh, empty section replaces the discarded
        ones so execution can resume recording immediately.
        """
        if not 0 <= index < len(self.sections):
            raise SimulationError(
                f"partial rollback of section {index} of {len(self.sections)}"
            )
        first = self.sections[index]
        read, write, log = first.snapshot
        self.read_granules = set(read)
        self.write_granules = set(write)
        self.write_log = dict(log)
        del self.sections[index:]
        self.sections.append(
            Section(
                first.start_cursor,
                self.signature_config,
                depth_at_start=first.depth_at_start,
                backend=self.sig_backend,
                snapshot=first.snapshot,
            )
        )
        self.depth = first.depth_at_start
        return first.start_cursor

    def reset_for_restart(self) -> None:
        """Full squash: discard everything, keep identity and attempts."""
        self.depth = 1
        self.sections = [
            Section(
                self.start_cursor + 1,
                self.signature_config,
                backend=self.sig_backend,
            )
        ]
        self.attempts += 1
        self.read_granules = set()
        self.write_granules = set()
        self.write_log = {}

    # ------------------------------------------------------------------
    # Access recording
    # ------------------------------------------------------------------

    def record_load(self, byte_address: int) -> None:
        """Record a load into the exact read set."""
        # Shift inlined (== byte_to_line): this runs on every speculative
        # load of every exact and Bulk TM run.
        self.read_granules.add(byte_address >> LINE_SHIFT)

    def record_store(self, byte_address: int, value: int) -> None:
        """Record a store into the write log and the exact write set."""
        self.write_log[byte_address >> WORD_SHIFT] = value & 0xFFFFFFFF
        self.write_granules.add(byte_address >> LINE_SHIFT)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TxnState(txn={self.txn_id}, sections={len(self.sections)}, "
            f"attempts={self.attempts})"
        )
