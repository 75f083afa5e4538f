"""Per-transaction speculative state: sections, logs, exact sets.

Transactions are divided into *sections* by nested begin/end markers
(Section 6.2.1, Figure 8): code before an inner transaction, the inner
transaction, code after it, and so on.  Without partial rollback the whole
transaction is one section and nested markers only adjust depth.

Each section tracks

* a **write log** of (word address → value), the authoritative speculative
  data, applied to architectural memory at commit and discarded on squash;
* exact read/write **granule sets** (line addresses in TM) — the actual
  mechanism of the exact schemes and the false-positive oracle for Bulk;
* optionally a read and a write :class:`~repro.core.signature.Signature`
  (Bulk only).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.core.backend.base import SignatureBackend
from repro.core.signature import Signature
from repro.core.signature_config import SignatureConfig
from repro.errors import SimulationError
from repro.mem.address import LINE_SHIFT, WORD_SHIFT


class Section:
    """One section of a (possibly nested) transaction."""

    __slots__ = (
        "start_cursor",
        "depth_at_start",
        "write_log",
        "read_granules",
        "write_granules",
        "write_lines",
        "read_signature",
        "write_signature",
    )

    def __init__(
        self,
        start_cursor: int,
        signature_config: Optional[SignatureConfig],
        depth_at_start: int = 1,
        backend: Optional[SignatureBackend] = None,
    ) -> None:
        #: Trace cursor where the section begins (restart target).
        self.start_cursor = start_cursor
        #: Transaction nesting depth at the section's start, restored on
        #: partial rollback.
        self.depth_at_start = depth_at_start
        self.write_log: Dict[int, int] = {}
        self.read_granules: Set[int] = set()
        self.write_granules: Set[int] = set()
        #: Line addresses written (for cache-side bookkeeping; equal to
        #: ``write_granules`` at line granularity).
        self.write_lines: Set[int] = set()
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
        "_agg_read",
        "_agg_write",
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
        # Incrementally maintained unions over sections (hot paths: the
        # exact schemes consult these on every access).
        self._agg_read: Set[int] = set()
        self._agg_write: Set[int] = set()

    # ------------------------------------------------------------------
    # Section management
    # ------------------------------------------------------------------

    @property
    def current(self) -> Section:
        """The section accesses are currently recorded into."""
        return self.sections[-1]

    def push_section(self, cursor: int) -> None:
        """Open a new section (partial-rollback mode, at nesting edges)."""
        self.sections.append(
            Section(
                cursor,
                self.signature_config,
                depth_at_start=self.depth,
                backend=self.sig_backend,
            )
        )

    def discard_sections_from(self, index: int) -> int:
        """Partial rollback: drop sections ``index`` onward.

        Returns the restart cursor (the first discarded section's start);
        the nesting depth is rewound to that section's starting depth.  A
        fresh, empty section replaces the discarded ones so execution can
        resume recording immediately.
        """
        if not 0 <= index < len(self.sections):
            raise SimulationError(
                f"partial rollback of section {index} of {len(self.sections)}"
            )
        first = self.sections[index]
        restart = first.start_cursor
        depth = first.depth_at_start
        del self.sections[index:]
        self.sections.append(
            Section(
                restart,
                self.signature_config,
                depth_at_start=depth,
                backend=self.sig_backend,
            )
        )
        self.depth = depth
        self._rebuild_aggregates()
        return restart

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
        self._agg_read = set()
        self._agg_write = set()

    def _rebuild_aggregates(self) -> None:
        self._agg_read = set()
        self._agg_write = set()
        for section in self.sections:
            self._agg_read |= section.read_granules
            self._agg_write |= section.write_granules

    # ------------------------------------------------------------------
    # Access recording
    # ------------------------------------------------------------------

    def record_load(self, byte_address: int) -> None:
        """Record a load into the current section's exact sets."""
        # Shifts inlined (== byte_to_line): this runs on every speculative
        # load of every exact and Bulk TM run.
        line = byte_address >> LINE_SHIFT
        self.sections[-1].read_granules.add(line)
        self._agg_read.add(line)

    def record_store(self, byte_address: int, value: int) -> None:
        """Record a store into the current section's log and exact sets."""
        section = self.sections[-1]
        line = byte_address >> LINE_SHIFT
        section.write_log[byte_address >> WORD_SHIFT] = value & 0xFFFFFFFF
        section.write_granules.add(line)
        section.write_lines.add(line)
        self._agg_write.add(line)

    # ------------------------------------------------------------------
    # Aggregated views (across all live sections)
    # ------------------------------------------------------------------

    def lookup_word(self, word_address: int) -> Optional[int]:
        """Newest speculative value of a word, or ``None`` if unwritten."""
        sections = self.sections
        if len(sections) == 1:  # the common, un-nested case
            return sections[0].write_log.get(word_address)
        for section in reversed(sections):
            value = section.write_log.get(word_address)
            if value is not None:
                return value
        return None

    def all_read_granules(self) -> Set[int]:
        """Union of exact read sets over sections (maintained
        incrementally; do not mutate the returned set)."""
        return self._agg_read

    def all_write_granules(self) -> Set[int]:
        """Union of exact write sets over sections (maintained
        incrementally; do not mutate the returned set)."""
        return self._agg_write

    def all_write_lines(self) -> Set[int]:
        """Union of written line addresses over sections.

        TM granules *are* line addresses, so this aliases the aggregate
        write-granule set; do not mutate the returned set.
        """
        return self._agg_write

    def merged_write_log(self) -> Dict[int, int]:
        """Write log flattened across sections, newest value winning."""
        merged: Dict[int, int] = {}
        for section in self.sections:
            merged.update(section.write_log)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TxnState(txn={self.txn_id}, sections={len(self.sections)}, "
            f"attempts={self.attempts})"
        )
