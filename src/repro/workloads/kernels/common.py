"""Shared infrastructure for trace-emitting kernels.

Each kernel is a real (if small-scale) implementation of its algorithm,
operating on named arrays laid out in a simulated address space.  Every
array element access is recorded as a LOAD or STORE event with the real
computed value, so the traces carry genuine data-flow — the TM
simulator's final-memory checks compare against values the kernels
actually computed.

Arrays are allocated line-aligned with small randomised gaps between
them, giving the address streams the entropy real heaps have (and
avoiding artificial signature-aliasing pathologies caused by perfectly
regular layouts).
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.mem.address import BYTES_PER_LINE, BYTES_PER_WORD
from repro.sim.trace import MemEvent, ThreadTrace, compute, load, store, tx_begin, tx_end

#: Mask applied to every stored value (32-bit words).
WORD_MASK = 0xFFFFFFFF


def fix(value: float, scale: int = 1 << 8) -> int:
    """Convert a float to a deterministic 32-bit fixed-point word."""
    return int(value * scale) & WORD_MASK


class AddressSpace:
    """A line-aligned allocator of named word arrays.

    Arrays are scattered over a ~1 GB region in 1 MB segments drawn at
    random: real heaps spread structures across many address bits, and
    that high-order entropy is exactly what the signature's C_i chunks
    hash.  Packing everything into a few hundred KB (as a naive
    generator would) makes chunk values artificially correlated and
    inflates signature false positives far beyond what the paper
    observes.
    """

    #: log2 of the allocation segment size in bytes (1 MB).
    SEGMENT_SHIFT = 20
    #: Number of segments in the contiguous-array half of the heap.
    NUM_SEGMENTS = 1024

    def __init__(self, rng: random.Random, base: int = 0x4000_0000) -> None:
        self._rng = rng
        self._base = base
        self._used_segments: set = set()
        self._arrays: Dict[str, int] = {}
        self._sizes: Dict[str, int] = {}
        #: name -> (words_per_record, [per-record base byte addresses]).
        self._records: Dict[str, tuple] = {}
        self._used_record_lines: set = set()

    def array(self, name: str, num_words: int) -> int:
        """Allocate ``num_words`` words; returns the base byte address.

        The array lands at a *random line offset* within its segment
        run: segment-aligned bases would pin the low 14 line-address
        bits of every allocation to near-zero values, artificially
        correlating signature chunk values across unrelated structures.
        """
        if name in self._arrays:
            raise ConfigurationError(f"array {name!r} allocated twice")
        span_lines = -(-(num_words * BYTES_PER_WORD) // BYTES_PER_LINE)
        segment_lines = (1 << self.SEGMENT_SHIFT) // BYTES_PER_LINE
        needed = -(-span_lines // segment_lines)
        if needed > self.NUM_SEGMENTS:
            raise ConfigurationError(f"array {name!r} larger than the heap")
        for _ in range(10_000):
            start = self._rng.randrange(self.NUM_SEGMENTS - needed + 1)
            run = range(start, start + needed)
            if all(segment not in self._used_segments for segment in run):
                self._used_segments.update(run)
                break
        else:  # pragma: no cover - 1024 segments never fill up in practice
            raise ConfigurationError("address space exhausted")
        slack_lines = needed * segment_lines - span_lines
        offset = self._rng.randrange(slack_lines + 1) * BYTES_PER_LINE
        base = self._base + (start << self.SEGMENT_SHIFT) + offset
        self._arrays[name] = base
        self._sizes[name] = num_words
        return base

    def record_array(self, name: str, count: int, words_per_record: int) -> None:
        """Allocate ``count`` records, each at an independent random heap
        location — the layout a garbage-collected heap of small objects
        actually has.  Elements are addressed through :meth:`addr` with
        ``index = record * words_per_record + field``.
        """
        if name in self._arrays or name in self._records:
            raise ConfigurationError(f"array {name!r} allocated twice")
        lines_per_record = -(-(words_per_record * BYTES_PER_WORD) // BYTES_PER_LINE)
        # Records live in the upper half of the 26-bit line-address
        # space, away from the contiguous arrays.
        low = 1 << 25
        high = 1 << 26
        bases = []
        for _ in range(count):
            while True:
                start = self._rng.randrange(low, high - lines_per_record)
                span = range(start, start + lines_per_record)
                if all(line not in self._used_record_lines for line in span):
                    self._used_record_lines.update(span)
                    break
            bases.append(start * BYTES_PER_LINE)
        self._records[name] = (words_per_record, bases)
        self._sizes[name] = count * words_per_record

    def addr(self, name: str, index: int) -> int:
        """Byte address of one word element of an array."""
        size = self._sizes[name]
        if not 0 <= index < size:
            raise ConfigurationError(
                f"index {index} outside array {name!r} of {size} words"
            )
        record_info = self._records.get(name)
        if record_info is not None:
            words_per_record, bases = record_info
            record, field = divmod(index, words_per_record)
            return bases[record] + field * BYTES_PER_WORD
        return self._arrays[name] + index * BYTES_PER_WORD


class TraceBuilder:
    """Accumulates one thread's events, tracking a software view of
    memory so kernels can read-modify-write realistically."""

    def __init__(self, thread_id: int, space: AddressSpace) -> None:
        self.thread_id = thread_id
        self.space = space
        self.events: List[MemEvent] = []
        #: The kernel-level view of memory contents (byte addr -> value).
        #: Shared across builders via :func:`shared_image` so threads see
        #: each other's *generation-time* values; the simulator re-derives
        #: runtime values from the committed logs.
        self.image: Dict[int, int] = {}

    # ------------------------------------------------------------------

    def ld(self, name: str, index: int) -> int:
        """Emit a load of one array element; returns its image value."""
        address = self.space.addr(name, index)
        self.events.append(load(address))
        return self.image.get(address, 0)

    def st(self, name: str, index: int, value: int) -> None:
        """Emit a store of one array element."""
        address = self.space.addr(name, index)
        value &= WORD_MASK
        self.events.append(store(address, value))
        self.image[address] = value

    def rmw(self, name: str, index: int, delta: int) -> int:
        """Read-modify-write one element (the ld A / st A pattern of
        Figure 12); returns the new value."""
        old = self.ld(name, index)
        new = (old + delta) & WORD_MASK
        self.st(name, index, new)
        return new

    def work(self, cycles: int) -> None:
        """Emit non-memory compute time."""
        if cycles > 0:
            self.events.append(compute(cycles))

    def begin(self) -> None:
        """Open a transaction."""
        self.events.append(tx_begin())

    def end(self) -> None:
        """Close a transaction."""
        self.events.append(tx_end())

    def build(self) -> ThreadTrace:
        """Finalize into an immutable ThreadTrace."""
        return ThreadTrace(self.thread_id, self.events)


def make_builders(
    num_threads: int, space: AddressSpace
) -> List[TraceBuilder]:
    """Builders for all threads, sharing one memory image."""
    builders = [TraceBuilder(tid, space) for tid in range(num_threads)]
    shared: Dict[int, int] = {}
    for builder in builders:
        builder.image = shared
    return builders


def stagger_after_setup(builders: List[TraceBuilder]) -> None:
    """Delay the worker threads past thread 0's setup phase.

    The Java originals initialise data single-threaded and *then* start
    the workers; without this barrier approximation, the setup's
    non-speculative stores would squash the workers' first transactions
    — a warm-up artefact, not a property of the workload.  The delay is
    a generous upper bound on the setup's execution time.
    """
    from repro.sim.trace import EventKind

    setup_events = sum(
        1
        for event in builders[0].events
        if event.kind in (EventKind.LOAD, EventKind.STORE)
    )
    delay = 8 * setup_events + 500
    for builder in builders[1:]:
        builder.work(delay)
