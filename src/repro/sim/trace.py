"""Memory-event traces — the input format of both system simulators.

The paper's TM evaluation is explicitly trace-driven ("These traces were
then analyzed in our TM simulator"), and its TLS evaluation is
execution-driven over compiler-generated tasks; this module defines the
common event vocabulary both our simulators consume:

* ``LOAD`` / ``STORE`` of a byte address (stores carry the value written,
  so squash-and-replay is deterministic and final memory state can be
  checked against a serial reference execution);
* ``COMPUTE`` of some number of non-memory cycles;
* ``TX_BEGIN`` / ``TX_END`` transaction markers (TM traces only; nesting
  is expressed by nested begin/end pairs).
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Sequence, Tuple

from repro.errors import TraceError


class EventKind(enum.Enum):
    """Kinds of trace events."""

    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    TX_BEGIN = "tx-begin"
    TX_END = "tx-end"

    # Members are singletons, so identity hashing is exact; the default
    # Enum hash is a Python-level call and an event's hash includes its
    # kind's, so it would run whenever an event is hashed.
    __hash__ = object.__hash__


# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``EventKind.LOAD`` goes through the enum metaclass's
# ``__getattr__``, several times slower than a module global, and the
# event code compares them per event it builds or validates.
_LOAD = EventKind.LOAD
_STORE = EventKind.STORE
_COMPUTE = EventKind.COMPUTE
_TX_BEGIN = EventKind.TX_BEGIN
_TX_END = EventKind.TX_END


class _EventFields(NamedTuple):
    kind: EventKind
    address: int = 0
    value: int = 0
    cycles: int = 0


class MemEvent(_EventFields):
    """One trace event: an immutable named tuple.

    ``address`` is a byte address (LOAD/STORE only); ``value`` is the
    stored word value (STORE only); ``cycles`` is the compute duration
    (COMPUTE only).  Build events with the factories below; a direct
    ``MemEvent(...)`` runs the same checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: EventKind,
        address: int = 0,
        value: int = 0,
        cycles: int = 0,
    ) -> "MemEvent":
        if kind is _LOAD or kind is _STORE:
            if address < 0:
                raise TraceError(f"negative address in {kind.value} event")
        elif kind is _COMPUTE and cycles <= 0:
            raise TraceError("compute events need a positive cycle count")
        return _new_event(cls, (kind, address, value, cycles))

    @classmethod
    def _make(cls, iterable: Iterable) -> "MemEvent":
        # ``_replace`` builds through ``_make``; keep it checked too.
        return cls(*iterable)


# The factories build the tuple directly: kernels emit tens of thousands
# of events, and skipping ``MemEvent.__new__``'s dispatch on the kind
# makes each one cheaper.  Each runs its own kind's check.
_new_event = tuple.__new__
_TX_BEGIN_EVENT = MemEvent(_TX_BEGIN)
_TX_END_EVENT = MemEvent(_TX_END)


def load(address: int) -> MemEvent:
    """A load event."""
    if address < 0:
        raise TraceError("negative address in load event")
    return _new_event(MemEvent, (_LOAD, address, 0, 0))


def store(address: int, value: int = 0) -> MemEvent:
    """A store event carrying the value written."""
    if address < 0:
        raise TraceError("negative address in store event")
    return _new_event(MemEvent, (_STORE, address, value, 0))


def compute(cycles: int) -> MemEvent:
    """A block of non-memory work."""
    if cycles <= 0:
        raise TraceError("compute events need a positive cycle count")
    return _new_event(MemEvent, (_COMPUTE, 0, 0, cycles))


def tx_begin() -> MemEvent:
    """A transaction-begin marker (one shared instance)."""
    return _TX_BEGIN_EVENT


def tx_end() -> MemEvent:
    """A transaction-end marker (one shared instance)."""
    return _TX_END_EVENT


class ThreadTrace:
    """The full event sequence one thread executes.

    Validates transactional bracketing at construction: every ``TX_END``
    must close an open ``TX_BEGIN`` and the trace must end with no open
    transaction.  The same pass records ``max_depth``, the deepest
    transaction nesting in the trace (0 with no transaction, 1 when no
    transaction nests).
    """

    __slots__ = ("thread_id", "events", "max_depth")

    def __init__(self, thread_id: int, events: Sequence[MemEvent]) -> None:
        self.thread_id = thread_id
        self.events: Tuple[MemEvent, ...] = tuple(events)
        self.max_depth = self._validate()

    def _validate(self) -> int:
        depth = max_depth = 0
        for position, event in enumerate(self.events):
            kind = event.kind
            if kind is _TX_BEGIN:
                depth += 1
                if depth > max_depth:
                    max_depth = depth
            elif kind is _TX_END:
                depth -= 1
                if depth < 0:
                    raise TraceError(
                        f"thread {self.thread_id}: TX_END at event {position} "
                        "closes nothing"
                    )
        if depth:
            raise TraceError(
                f"thread {self.thread_id}: trace ends with {depth} open "
                "transaction(s)"
            )
        return max_depth

    def transaction_count(self) -> int:
        """Number of top-level transactions."""
        depth = 0
        count = 0
        for event in self.events:
            kind = event.kind
            if kind is _TX_BEGIN:
                if depth == 0:
                    count += 1
                depth += 1
            elif kind is _TX_END:
                depth -= 1
        return count

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThreadTrace(thread={self.thread_id}, events={len(self.events)}, "
            f"transactions={self.transaction_count()})"
        )


def serial_reference_memory(
    traces: Iterable[ThreadTrace],
) -> "dict[int, int]":
    """Final word-address → value map of a *serial* execution of traces.

    Each thread's stores are applied in trace order, threads one after
    another.  Used by tests as one of the serialisability oracles (for
    workloads whose threads write disjoint locations, any interleaving
    must agree with this).
    """
    memory: dict = {}
    for trace in traces:
        for event in trace.events:
            if event.kind is _STORE:
                memory[event.address >> 2] = event.value & 0xFFFFFFFF
    return memory
