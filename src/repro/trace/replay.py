"""Replay adapters: stored traces → the substrates' workload objects.

Each adapter plugs into the same seam the synthetic generators feed —
``run_tm_comparison`` consumes ``List[ThreadTrace]``,
``run_tls_comparison`` consumes ``List[TlsTask]``, and
``run_checkpoint_comparison`` consumes ``List[CheckpointEpoch]`` — so a
replayed run differs from a generated one *only* in where the events
came from.  Decoding is pure: the same trace id always materialises the
identical workload objects, which is what makes replayed comparison
artifacts byte-identical across worker counts.

The adapters stream through :class:`~repro.trace.store.TraceReader`,
which checks the whole record stream against the trace id before
:meth:`load` returns; the workload objects themselves are what the
substrates require, so total memory is proportional to the trace's
event count, exactly as with the generators.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, List, Optional, Union

from repro.errors import TraceError
from repro.sim.trace import MemEvent, ThreadTrace
from repro.trace.records import decode_event
from repro.trace.store import TraceReader, TraceStore, open_store

if TYPE_CHECKING:  # runtime imports are deferred (substrate layering)
    from repro.checkpoint.workload import CheckpointEpoch
    from repro.tls.task import TlsTask


class _TraceWorkload:
    """Shared skeleton: kind check, reader plumbing, obs threading."""

    kind = ""

    def __init__(
        self,
        store: "Union[TraceStore, str, os.PathLike[str]]",
        trace_id: str,
        obs: Optional[Any] = None,
    ) -> None:
        self.store = open_store(store)
        self.trace_id = trace_id
        metrics = obs.metrics if obs is not None else None
        self.reader: TraceReader = self.store.reader(trace_id, metrics=metrics)
        if self.reader.info.kind != self.kind:
            raise TraceError(
                f"trace {trace_id!r} is a {self.reader.info.kind!r} trace; "
                f"a {self.kind!r} workload cannot replay it"
            )


class TraceTmWorkload(_TraceWorkload):
    """Replays a stored TM trace as the thread list a
    :class:`~repro.tm.system.TmSystem` consumes."""

    kind = "tm"

    def load(self) -> List[ThreadTrace]:
        traces: List[ThreadTrace] = []
        thread_id: Optional[int] = None
        events: List[MemEvent] = []
        for row in self.reader.records():
            if row[0] == "T":
                if thread_id is not None:
                    traces.append(ThreadTrace(thread_id, events))
                thread_id = row[1]
                events = []
            else:
                events.append(decode_event(row))
        if thread_id is not None:
            traces.append(ThreadTrace(thread_id, events))
        if not traces:
            raise TraceError(
                f"trace {self.trace_id!r} holds no TM threads"
            )
        return traces


class TraceTlsWorkload(_TraceWorkload):
    """Replays a stored TLS trace as the task list a
    :class:`~repro.tls.system.TlsSystem` consumes."""

    kind = "tls"

    def load(self) -> "List[TlsTask]":
        from repro.tls.task import TlsTask

        tasks: List[TlsTask] = []
        header: Optional[List] = None
        events: List[MemEvent] = []
        for row in self.reader.records():
            if row[0] == "K":
                if header is not None:
                    tasks.append(TlsTask(header[1], events, header[2]))
                header = row
                events = []
            else:
                events.append(decode_event(row))
        if header is not None:
            tasks.append(TlsTask(header[1], events, header[2]))
        if not tasks:
            raise TraceError(
                f"trace {self.trace_id!r} holds no TLS tasks"
            )
        return tasks


class TraceCheckpointWorkload(_TraceWorkload):
    """Replays a stored checkpoint trace as the epoch stream a
    :class:`~repro.checkpoint.system.CheckpointSystem` consumes."""

    kind = "checkpoint"

    def load(self) -> "List[CheckpointEpoch]":
        from repro.checkpoint.workload import CheckpointEpoch, CheckpointOp

        epochs: List[CheckpointEpoch] = []
        mispredicted: Optional[bool] = None
        ops: List[CheckpointOp] = []
        for row in self.reader.records():
            if row[0] == "E":
                if mispredicted is not None:
                    epochs.append(CheckpointEpoch(tuple(ops), mispredicted))
                mispredicted = bool(row[1])
                ops = []
            elif row[0] == "l":
                ops.append(("load", row[1], 0))
            else:  # the reader admits only E/l/s in a checkpoint trace
                ops.append(("store", row[1], row[2]))
        if mispredicted is not None:
            epochs.append(CheckpointEpoch(tuple(ops), mispredicted))
        if not epochs:
            raise TraceError(
                f"trace {self.trace_id!r} holds no checkpoint epochs"
            )
        return epochs


#: Substrate kind -> replay adapter class.
TRACE_WORKLOADS = {
    "tm": TraceTmWorkload,
    "tls": TraceTlsWorkload,
    "checkpoint": TraceCheckpointWorkload,
}


def load_trace_workload(
    kind: str,
    store: "Union[TraceStore, str, os.PathLike[str]]",
    trace_id: str,
    obs: Optional[Any] = None,
) -> Any:
    """Materialise the ``kind`` workload of one stored trace."""
    adapter_cls = TRACE_WORKLOADS.get(kind)
    if adapter_cls is None:
        raise TraceError(f"unknown trace workload kind {kind!r}")
    return adapter_cls(store, trace_id, obs=obs).load()
