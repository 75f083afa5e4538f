"""Real-trace ingestion and the content-addressed on-disk trace store.

The substrates were built trace-driven from day one, but every run so
far generated its workload in-process.  This package turns the workload
into *data*:

* :mod:`repro.trace.records` — the record vocabulary, its canonical
  encoding, and the one codec between event records and simulator
  events;
* :mod:`repro.trace.store` — a content-addressed store (one
  zlib-compressed record file and one info file per trace; trace ids
  are SHA-256 over the canonical record stream) whose every read
  re-checks the content against the id;
* :mod:`repro.trace.ingest` — capture the instrumented kernels (TM),
  task generators (TLS), and epoch streams (checkpoint) into the store,
  or convert external JSONL traces;
* :mod:`repro.trace.replay` — workload adapters that materialise a
  stored trace back into the exact objects the simulators consume.

CLI: ``python -m repro trace ingest|import|list|info``, and
``--trace-store``/``--trace-id`` on the ``tm``/``tls``/``checkpoint``
subcommands.  Replay is deterministic: one trace id ⇒ byte-identical
comparison artifacts at any ``--jobs`` count.
"""

from repro.trace.ingest import (
    INGESTERS,
    import_jsonl,
    ingest_checkpoint,
    ingest_tls,
    ingest_tm,
)
from repro.trace.records import TRACE_KINDS, TRACE_SCHEMA_VERSION
from repro.trace.replay import (
    TRACE_WORKLOADS,
    TraceCheckpointWorkload,
    TraceTlsWorkload,
    TraceTmWorkload,
    load_trace_workload,
)
from repro.trace.store import (
    IngestResult,
    TraceInfo,
    TraceReader,
    TraceStore,
    TraceWriter,
)

__all__ = [
    "INGESTERS",
    "IngestResult",
    "TRACE_KINDS",
    "TRACE_SCHEMA_VERSION",
    "TRACE_WORKLOADS",
    "TraceCheckpointWorkload",
    "TraceInfo",
    "TraceReader",
    "TraceStore",
    "TraceTlsWorkload",
    "TraceTmWorkload",
    "TraceWriter",
    "import_jsonl",
    "ingest_checkpoint",
    "ingest_tls",
    "ingest_tm",
    "load_trace_workload",
]
