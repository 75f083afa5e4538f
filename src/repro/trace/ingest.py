"""Ingest: capture workloads into the trace store.

Three capture paths, one per substrate, all driven by the *instrumented
kernels and generators* the simulators already run — every array access
a kernel performs is recorded as a word-accurate LOAD/STORE event, so an
ingested trace carries genuine data flow, not a statistical profile:

* :func:`ingest_tm` — the Table 4 kernels (``repro.workloads.kernels``);
* :func:`ingest_tls` — the Table 6 task generators;
* :func:`ingest_checkpoint` — the checkpoint epoch streams, stored with
  one epoch marker per epoch.

Plus :func:`import_jsonl`, a converter for traces captured outside this
repository (e.g. by a binary-instrumentation run).  Its input is one
JSON value per line, blank lines skipped: a dict header opens each
replay unit — ``{"kind": "thread", "id": 3}`` (TM),
``{"kind": "task", "id": 7, "spawn": 12}`` (TLS),
``{"kind": "epoch", "mispredicted": false}`` (checkpoint) — and the
event arrays of :mod:`repro.trace.records` follow it.

Ingest is deterministic: the same (kind, app, sizing, seed) always
produces the same record stream and therefore the same trace id.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, List, Sequence, Union

from repro.errors import TraceError
from repro.sim.trace import ThreadTrace
from repro.trace.records import (
    HEADER_TAGS,
    decode_event,
    decode_record,
    encode_event,
    header_row,
    validate_record,
)
from repro.trace.store import IngestResult, TraceStore, open_store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.checkpoint.workload import CheckpointEpoch
    from repro.tls.task import TlsTask


# ----------------------------------------------------------------------
# Workload objects -> record streams
# ----------------------------------------------------------------------

def tm_records(traces: Sequence[ThreadTrace]) -> Iterator[list]:
    """The record stream of a TM thread-trace list."""
    for trace in traces:
        yield header_row("tm", trace.thread_id)
        for event in trace.events:
            yield encode_event(event)


def tls_records(tasks: "Sequence[TlsTask]") -> Iterator[list]:
    """The record stream of a TLS task list."""
    for task in tasks:
        yield header_row("tls", task.task_id, task.spawn_cursor)
        for event in task.events:
            yield encode_event(event)


def checkpoint_records(
    epochs: "Sequence[CheckpointEpoch]",
) -> Iterator[list]:
    """The record stream of a checkpoint epoch list."""
    for epoch in epochs:
        yield header_row("checkpoint", int(epoch.mispredicted))
        for op, address, value in epoch.ops:
            if op == "load":
                yield ["l", address]
            elif op == "store":
                yield ["s", address, value]
            else:  # pragma: no cover - generator never emits others
                raise TraceError(f"unknown checkpoint op {op!r}")


# ----------------------------------------------------------------------
# Kernel capture
# ----------------------------------------------------------------------

def _ingest(
    store: "Union[TraceStore, str, os.PathLike[str]]",
    kind: str,
    label: str,
    meta: dict,
    rows: Iterable[list],
) -> IngestResult:
    writer = open_store(store).writer(kind, label=label, meta=meta)
    try:
        writer.add_all(rows)
        return writer.finish()
    except BaseException:
        writer.abort()
        raise


def ingest_tm(
    store: "Union[TraceStore, str, os.PathLike[str]]",
    app: str,
    num_threads: int = 8,
    txns_per_thread: int = 12,
    seed: int = 42,
) -> IngestResult:
    """Capture one Table 4 TM kernel run into the store."""
    from repro.workloads.kernels import build_tm_workload

    traces = build_tm_workload(
        app, num_threads=num_threads, txns_per_thread=txns_per_thread,
        seed=seed,
    )
    meta = {
        "app": app,
        "num_threads": num_threads,
        "txns_per_thread": txns_per_thread,
        "seed": seed,
    }
    return _ingest(store, "tm", app, meta, tm_records(traces))


def ingest_tls(
    store: "Union[TraceStore, str, os.PathLike[str]]",
    app: str,
    num_tasks: int = 160,
    seed: int = 42,
) -> IngestResult:
    """Capture one Table 6 TLS task stream into the store."""
    from repro.workloads.tls_spec import build_tls_workload

    tasks = build_tls_workload(app, num_tasks=num_tasks, seed=seed)
    meta = {"app": app, "num_tasks": num_tasks, "seed": seed}
    return _ingest(store, "tls", app, meta, tls_records(tasks))


def ingest_checkpoint(
    store: "Union[TraceStore, str, os.PathLike[str]]",
    app: str,
    num_epochs: int = 64,
    seed: int = 42,
) -> IngestResult:
    """Capture one checkpoint epoch stream into the store."""
    from repro.checkpoint.workload import build_checkpoint_workload

    epochs = build_checkpoint_workload(app, num_epochs=num_epochs, seed=seed)
    meta = {"app": app, "num_epochs": num_epochs, "seed": seed}
    return _ingest(
        store, "checkpoint", app, meta, checkpoint_records(epochs)
    )


#: Substrate kind -> kernel-capture function (CLI dispatch table).
INGESTERS = {
    "tm": ingest_tm,
    "tls": ingest_tls,
    "checkpoint": ingest_checkpoint,
}


# ----------------------------------------------------------------------
# External JSONL conversion
# ----------------------------------------------------------------------

#: Trace kind -> the external header's ``kind`` and its record fields.
_JSONL_HEADERS = {
    "tm": ("thread", ("id",)),
    "tls": ("task", ("id", "spawn")),
    "checkpoint": ("epoch", ("mispredicted",)),
}


def _jsonl_row(line: bytes, kind: str) -> List:
    """One external JSONL line as a validated store record."""
    row = decode_record(line)
    if isinstance(row, dict):
        header_kind, names = _JSONL_HEADERS[kind]
        if row.get("kind") != header_kind:
            raise TraceError(
                f"expected a {header_kind!r} header for a {kind} trace, "
                f"got {row!r}"
            )
        missing = [name for name in names if name not in row]
        if missing:
            raise TraceError(f"header {row!r} lacks {', '.join(missing)}")
        fields = [row[name] for name in names]
        if kind == "checkpoint":
            fields = [int(bool(fields[0]))]
        row = header_row(kind, *fields)
    validate_record(row, kind)
    if row[0] != HEADER_TAGS[kind]:
        # The event constructors' own checks (addresses, cycle counts)
        # fail here, at conversion time, never at replay time.
        decode_event(row)
    return row


def import_jsonl(
    store: "Union[TraceStore, str, os.PathLike[str]]",
    path: "Union[str, os.PathLike[str]]",
    kind: str,
    label: str = "",
) -> IngestResult:
    """Convert an external JSONL trace file into the store.

    A malformed line raises :class:`~repro.errors.TraceError` naming
    ``file:line`` and leaves the store unchanged.
    """
    source = Path(path)
    writer = open_store(store).writer(
        kind, label=label or source.stem,
        meta={"imported_from": source.name},
    )
    try:
        with open(source, "rb") as handle:
            for line_number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    writer.add(_jsonl_row(line, kind))
                except TraceError as error:
                    raise TraceError(
                        f"{source}:{line_number}: {error}"
                    ) from error
        return writer.finish()
    except BaseException:
        writer.abort()
        raise
