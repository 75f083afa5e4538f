"""The content-addressed on-disk trace store.

Each stored trace is two files in the store directory::

    <trace_id>.z      -- the canonical record lines, zlib-compressed
    <trace_id>.json   -- its info: schema, kind, label, meta, counts

A trace's identity is the SHA-256 over its canonical record stream (see
:mod:`repro.trace.records`), so an id fully pins what replay will
produce.  Ingesting content the store already holds is a no-op (content
dedupe).

Writes are crash-safe in the result-cache style: each file is written
under a unique temporary name and published with ``os.replace``, the
record file first and the info file last.  A trace exists once its info
file does, so a crashed or concurrent ingest never shows a half-written
trace; a crash leaves at worst an orphaned ``*.tmp`` file.

Every read streams the record file through one decompressor and
re-hashes the decoded stream against the id.  A missing, truncated or
corrupt record file, or an info file of another schema, raises
:class:`~repro.errors.TraceError` naming the trace, and
:meth:`TraceReader.verify` is that same full read.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import tempfile
import zlib
from dataclasses import dataclass
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Union,
)

from repro.errors import TraceError
from repro.trace.records import (
    HEADER_TAGS,
    TRACE_KINDS,
    TRACE_SCHEMA_VERSION,
    decode_record,
    encode_record,
    validate_record,
)

#: Compressed bytes read from a record file per decompressor call.
_READ_BYTES = 1 << 16

_TRACE_ID = re.compile(r"[0-9a-f]{64}")


def _id_digest(kind: str) -> Any:
    """The trace-id hash of a ``kind`` trace, before its first record."""
    return hashlib.sha256(
        f"bulk-trace:v{TRACE_SCHEMA_VERSION}:{kind}\n".encode("ascii")
    )


@dataclass(frozen=True)
class TraceInfo:
    """One stored trace's info file."""

    trace_id: str
    kind: str
    label: str
    num_streams: int
    num_records: int
    encoded_bytes: int
    meta: Dict[str, Any]


@dataclass(frozen=True)
class IngestResult:
    """What one :meth:`TraceWriter.finish` call produced."""

    trace_id: str
    num_streams: int
    num_records: int
    encoded_bytes: int
    #: The store already held this content; nothing was written.
    deduplicated: bool


class TraceStore:
    """A directory of content-addressed traces, two files per trace."""

    def __init__(self, directory: "str | os.PathLike[str]") -> None:
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def record_path(self, trace_id: str) -> pathlib.Path:
        return self.directory / f"{trace_id}.z"

    def info_path(self, trace_id: str) -> pathlib.Path:
        return self.directory / f"{trace_id}.json"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def has(self, trace_id: str) -> bool:
        """Whether the store holds a trace (its info file is present)."""
        return bool(_TRACE_ID.fullmatch(trace_id)) and (
            self.info_path(trace_id).is_file()
        )

    def info(self, trace_id: str) -> TraceInfo:
        """The info of one trace (unknown ids raise)."""
        if not self.has(trace_id):
            raise TraceError(
                f"trace {trace_id!r} is not in the store at {self.directory}"
            )
        try:
            fields = json.loads(self.info_path(trace_id).read_bytes())
        except (OSError, ValueError) as error:
            raise TraceError(
                f"trace {trace_id!r}: unreadable info file ({error})"
            ) from error
        schema = None
        if isinstance(fields, dict):
            schema = fields.pop("schema", None)
        if schema != TRACE_SCHEMA_VERSION:
            raise TraceError(
                f"trace {trace_id!r}: info file has schema {schema!r}, "
                f"this build speaks {TRACE_SCHEMA_VERSION}"
            )
        try:
            return TraceInfo(trace_id=trace_id, **fields)
        except TypeError as error:
            raise TraceError(
                f"trace {trace_id!r}: malformed info file ({error})"
            ) from error

    def ids(self) -> List[str]:
        """Every stored trace id, sorted."""
        return sorted(
            path.stem
            for path in self.directory.glob("*.json")
            if _TRACE_ID.fullmatch(path.stem)
        )

    def traces(self) -> List[TraceInfo]:
        """Every stored trace, ordered by (kind, label, id)."""
        return sorted(
            (self.info(trace_id) for trace_id in self.ids()),
            key=lambda info: (info.kind, info.label, info.trace_id),
        )

    # ------------------------------------------------------------------
    # Writing and reading
    # ------------------------------------------------------------------

    def writer(
        self,
        kind: str,
        label: str = "",
        meta: Optional[Dict[str, Any]] = None,
    ) -> "TraceWriter":
        """Open a writer for one new trace of substrate ``kind``."""
        return TraceWriter(self, kind, label, meta or {})

    def reader(
        self, trace_id: str, metrics: Optional[Any] = None
    ) -> "TraceReader":
        """A streaming reader over one stored trace.

        ``metrics`` (an :class:`~repro.obs.metrics.MetricsRegistry`, or
        ``None``) receives the ``trace.bytes_streamed`` /
        ``trace.records_replayed`` counters.
        """
        return TraceReader(self, trace_id, metrics=metrics)


def open_store(
    store: "Union[TraceStore, str, os.PathLike[str]]",
) -> TraceStore:
    """Accept a :class:`TraceStore` or a directory path."""
    if isinstance(store, TraceStore):
        return store
    return TraceStore(store)


class TraceWriter:
    """Streams one trace's records into a compressed record file.

    Use as::

        writer = store.writer("tm", label="mc")
        writer.add(("T", 0))
        writer.add(("l", 0x1000))
        ...
        result = writer.finish()   # -> IngestResult with the trace id

    Records are validated and canonically encoded as they arrive; the
    running SHA-256 over the encoded stream becomes the trace id at
    :meth:`finish`.
    """

    def __init__(
        self,
        store: TraceStore,
        kind: str,
        label: str,
        meta: Dict[str, Any],
    ) -> None:
        if kind not in TRACE_KINDS:
            raise TraceError(
                f"unknown trace kind {kind!r} (kinds: {', '.join(TRACE_KINDS)})"
            )
        self.store = store
        self.kind = kind
        self.label = label
        self.meta = meta
        self._digest = _id_digest(kind)
        self._compressor = zlib.compressobj(6)
        handle, self._temporary = tempfile.mkstemp(
            dir=store.directory, prefix=".ingest-", suffix=".tmp"
        )
        self._file = os.fdopen(handle, "wb")
        self.num_records = 0
        self.num_streams = 0
        self.encoded_bytes = 0
        self._finished = False

    def add(self, row: Sequence) -> None:
        """Append one record (a header or event row)."""
        if self._finished:
            raise TraceError("trace writer already finished")
        validate_record(row, self.kind)
        if row[0] == HEADER_TAGS[self.kind]:
            self.num_streams += 1
        elif self.num_streams == 0:
            raise TraceError(
                f"event record {list(row)!r} before any header"
            )
        encoded = encode_record(row)
        self._digest.update(encoded)
        self._file.write(self._compressor.compress(encoded))
        self.num_records += 1
        self.encoded_bytes += len(encoded)

    def add_all(self, rows: Iterable[Sequence]) -> None:
        """Append many records."""
        for row in rows:
            self.add(row)

    def abort(self) -> None:
        """Discard everything written so far."""
        self._finished = True
        self._file.close()
        try:
            os.unlink(self._temporary)
        except OSError:
            pass  # already published or removed

    def finish(self) -> IngestResult:
        """Seal the trace: compute its id and publish its two files.

        Content the store already holds is deduplicated — the new record
        file is discarded and the existing trace's counts are returned.
        """
        if self._finished:
            raise TraceError("trace writer already finished")
        if self.num_records == 0:
            self.abort()
            raise TraceError("refusing to store an empty trace")
        self._file.write(self._compressor.flush())
        self._file.close()
        self._finished = True
        trace_id = self._digest.hexdigest()
        if self.store.has(trace_id):
            os.unlink(self._temporary)
            info = self.store.info(trace_id)
            return IngestResult(
                trace_id=trace_id,
                num_streams=info.num_streams,
                num_records=info.num_records,
                encoded_bytes=info.encoded_bytes,
                deduplicated=True,
            )
        info_text = json.dumps(
            {
                "schema": TRACE_SCHEMA_VERSION,
                "kind": self.kind,
                "label": self.label,
                "meta": self.meta,
                "num_streams": self.num_streams,
                "num_records": self.num_records,
                "encoded_bytes": self.encoded_bytes,
            },
            sort_keys=True,
        )
        os.replace(self._temporary, self.store.record_path(trace_id))
        handle, temporary = tempfile.mkstemp(
            dir=self.store.directory, prefix=".info-", suffix=".tmp"
        )
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(info_text)
        os.replace(temporary, self.store.info_path(trace_id))
        return IngestResult(
            trace_id=trace_id,
            num_streams=self.num_streams,
            num_records=self.num_records,
            encoded_bytes=self.encoded_bytes,
            deduplicated=False,
        )


class TraceReader:
    """Streams one stored trace's records and checks them against its id.

    :attr:`records_read` is the replay position.
    """

    def __init__(
        self,
        store: TraceStore,
        trace_id: str,
        metrics: Optional[Any] = None,
    ) -> None:
        self.store = store
        self.info = store.info(trace_id)
        self.records_read = 0
        if metrics is not None:
            self._m_bytes = metrics.counter("trace.bytes_streamed")
            self._m_position = metrics.counter("trace.records_replayed")
        else:
            self._m_bytes = None
            self._m_position = None

    @property
    def trace_id(self) -> str:
        return self.info.trace_id

    def _corrupt(self, problem: str) -> TraceError:
        return TraceError(
            f"trace {self.trace_id!r}: record file "
            f"{self.store.record_path(self.trace_id).name} {problem}"
        )

    def _decoded_blocks(self) -> Iterator[bytes]:
        """The record file's decompressed bytes, block by block."""
        try:
            handle = open(self.store.record_path(self.trace_id), "rb")
        except OSError as error:
            raise self._corrupt("is missing from the store") from error
        decompressor = zlib.decompressobj()
        with handle:
            try:
                for block in iter(lambda: handle.read(_READ_BYTES), b""):
                    yield decompressor.decompress(block)
                yield decompressor.flush()
            except zlib.error as error:
                raise self._corrupt(
                    f"fails to decompress ({error})"
                ) from error
        if not decompressor.eof:
            raise self._corrupt("is truncated")
        if decompressor.unused_data:
            raise self._corrupt("has trailing bytes")

    def records(self) -> Iterator[List]:
        """Yield every record row, then check the stream against the id.

        A consumer that reads to the end has seen exactly the ingested
        records, or gets a :class:`~repro.errors.TraceError`.
        """
        digest = _id_digest(self.info.kind)
        pending = b""
        for block in self._decoded_blocks():
            digest.update(block)
            if self._m_bytes is not None:
                self._m_bytes.inc(len(block))
            lines = (pending + block).split(b"\n")
            pending = lines.pop()
            for line in lines:
                try:
                    row = decode_record(line)
                    validate_record(row, self.info.kind)
                except TraceError as error:
                    raise self._corrupt(f"is corrupt ({error})") from error
                self.records_read += 1
                if self._m_position is not None:
                    self._m_position.inc()
                yield row
        if pending or digest.hexdigest() != self.trace_id:
            raise self._corrupt("does not hash to the trace id")

    def verify(self) -> str:
        """Read the whole trace; its content must hash to the trace id."""
        for _ in self.records():
            pass
        return self.trace_id
