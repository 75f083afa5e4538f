"""The trace store's record vocabulary, its canonical encoding, and the
one codec between event records and simulator events.

A stored trace is a flat sequence of *records*; each record is one
compact JSON array encoded canonically (no whitespace, one line per
record, ``\\n`` terminated).  The canonical encoding matters twice:

* the **trace id** is the SHA-256 over the encoded record stream (plus a
  schema/kind header), so identical logical traces land on identical ids
  however they reached the store, and
* replay decodes exactly what ingest encoded — byte-identical artifacts
  at any worker count are only possible because there is one encoding.

Two record classes exist, and every field after the tag is an integer:

* **stream headers** open a replay unit and carry its identity —
  ``["T", thread_id]`` (TM thread), ``["K", task_id, spawn_cursor]``
  (TLS task), ``["E", mispredicted]`` (checkpoint epoch, flag 0/1);
* **events** belong to the most recent header — ``["l", addr]``,
  ``["s", addr, value]``, ``["c", cycles]``, ``["b"]``, ``["e"]``.
  :func:`encode_event` and :func:`decode_event` convert them to and from
  :class:`~repro.sim.trace.MemEvent` for ingest, import and replay.
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.errors import TraceError
from repro.sim.trace import (
    EventKind,
    MemEvent,
    compute,
    load,
    store,
    tx_begin,
    tx_end,
)

#: Bump when the record vocabulary or the canonical encoding changes —
#: trace ids embed it, so old and new stores can never serve each other's
#: content under one id.
TRACE_SCHEMA_VERSION = 1

#: The substrates a stored trace can target.
TRACE_KINDS = ("tm", "tls", "checkpoint")

#: Header tags, by trace kind.
HEADER_TAGS = {"tm": "T", "tls": "K", "checkpoint": "E"}

#: Event tag -> the MemEvent constructor its fields are the arguments of.
EVENT_CONSTRUCTORS = {
    "l": load,
    "s": store,
    "c": compute,
    "b": tx_begin,
    "e": tx_end,
}

#: Arity (including the tag) of every record, for validation.
_ARITY = {"T": 2, "K": 3, "E": 2, "l": 2, "s": 3, "c": 2, "b": 1, "e": 1}


def encode_record(row: Sequence) -> bytes:
    """One record in its canonical byte form (compact JSON + newline)."""
    return (
        json.dumps(list(row), separators=(",", ":")).encode("ascii") + b"\n"
    )


def decode_record(line: bytes) -> List:
    """Parse one canonical record line back into its row form (check it
    with :func:`validate_record`)."""
    try:
        return json.loads(line)
    except ValueError as error:
        raise TraceError(f"malformed trace record {line[:60]!r}") from error


def validate_record(row: Sequence, kind: str) -> None:
    """Reject rows that are not records of a ``kind`` trace.

    The store must never accept a record the replay adapters cannot
    interpret.  Headers must match the trace kind, event tags must be
    known, arities must be exact, and every field after the tag must be
    an integer.
    """
    if not isinstance(row, (list, tuple)) or not row:
        raise TraceError(f"trace record {row!r} is not a non-empty array")
    tag = row[0]
    expected = _ARITY.get(tag) if isinstance(tag, str) else None
    if expected is None:
        raise TraceError(f"unknown trace record tag {tag!r} in {row!r}")
    if len(row) != expected:
        raise TraceError(
            f"record {row!r} has {len(row)} fields, expected {expected}"
        )
    if any(type(field) is not int for field in row[1:]):
        raise TraceError(f"record {row!r} has a non-integer field")
    if tag in HEADER_TAGS.values() and tag != HEADER_TAGS[kind]:
        raise TraceError(
            f"header {row!r} does not belong in a {kind!r} trace"
        )
    if kind == "checkpoint" and tag in ("c", "b", "e"):
        raise TraceError(
            f"checkpoint traces hold only loads and stores, got {row!r}"
        )
    if kind == "tls" and tag in ("b", "e"):
        raise TraceError(
            f"TLS task traces have no transaction markers, got {row!r}"
        )


def header_row(kind: str, *fields: int) -> List:
    """Build the header record of one replay unit of a ``kind`` trace."""
    return [HEADER_TAGS[kind], *fields]


def encode_event(event: MemEvent) -> List:
    """One simulator event in record form."""
    kind = event.kind
    if kind is EventKind.LOAD:
        return ["l", event.address]
    if kind is EventKind.STORE:
        return ["s", event.address, event.value]
    if kind is EventKind.COMPUTE:
        return ["c", event.cycles]
    return ["b"] if kind is EventKind.TX_BEGIN else ["e"]


def decode_event(row: Sequence) -> MemEvent:
    """Rebuild the simulator event of a validated event record."""
    return EVENT_CONSTRUCTORS[row[0]](*row[1:])
