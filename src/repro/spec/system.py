"""Machinery shared by the substrate system simulators.

``TmSystem`` and ``TlsSystem`` grew the same plumbing twice: unpack the
observability bundle, build the bus, resolve metric handles, charge the
commit bus occupancy, count and trace commits and squashes, time units
from begin/dispatch to commit, and write back non-speculative dirty
lines for the Set Restriction.  :class:`SpecSystemCore` is that plumbing
once; the substrate systems inherit it and keep only the protocol logic
that genuinely differs.

The core is deliberately *not* a scheduler or a run loop — TM's
transaction retry dance, TLS's in-order task commit window, and the
checkpoint substrate's rollback re-execution share no useful control
flow.  What they share is accounting, and accounting is exactly what
must stay byte-identical across the refactor: every helper here emits
the same metric names and the same trace events, in the same order, as
the code it replaced.

Subclasses call :meth:`_init_spec_core` from their constructor after
setting ``self.scheme``, and must provide a ``stats`` object whose class
derives from :class:`~repro.spec.stats.SpecStats` (the ``commits``
accessor feeds the ``run.end`` event).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.coherence.message import BandwidthCategory, MessageKind
from repro.core.backend import resolve_backend
from repro.interconnect import InterconnectConfig, TimedBus, build_bus
from repro.obs import Observability
from repro.spec.config import DEFAULT_RUN_CONFIG, RunConfig

# Each enum member this module compares or passes, bound once: on
# Python 3.9-3.11 ``MessageKind.WRITEBACK`` goes through the enum
# metaclass's ``__getattr__``, several times slower than a module
# global, and the safe-writeback charge passes them per written-back
# line.
_WRITEBACK = MessageKind.WRITEBACK


class SpecSystemCore:
    """Shared bus construction, metrics wiring, and obs-event helpers."""

    def _init_spec_core(
        self,
        params: Any,
        obs: Optional[Observability],
        config: Optional[RunConfig],
        *,
        prefix: str,
        unit_timer: str,
    ) -> None:
        """Wire the instruments and apply the run options of ``config``
        (the defaults when ``None``): build the bus and resolve the
        signature backend.

        ``prefix`` namespaces the substrate's metrics (``"tm"`` produces
        ``tm.commits``, ``tm.squashes``, ...); ``unit_timer`` names the
        begin-to-commit cycle timer (``tm.txn_cycles``,
        ``tls.task_cycles``, ``checkpoint.epoch_cycles``).
        """
        # Every attribute set here counts against a system's budget: from
        # 30 instance attributes on, CPython 3.11 gives each instance an
        # unshared dict and every attribute load on the hot paths gets
        # slower.  TmSystem (24), TlsSystem (22) and CheckpointSystem
        # (20) are under it, and a test holds them there.
        self.params = params
        config = config or DEFAULT_RUN_CONFIG
        self._spec_prefix = prefix
        self.metrics = obs.metrics if obs is not None else None
        self.tracer = obs.tracer if obs is not None else None
        #: The obs fast-path switch: hot call sites check this one flag
        #: before *building* the keyword arguments for note_* / trace
        #: helpers, so the default (untraced, unmetered) configuration
        #: never pays for formatting work nobody will see.  The
        #: Observability bundle always carries both instruments, so one
        #: flag covers metrics and tracer exactly.
        self.obs_enabled = obs is not None
        self.bus = build_bus(
            InterconnectConfig.parse(config.bus),
            commit_occupancy_cycles=params.commit_occupancy_cycles,
            bytes_per_cycle=params.bus_bytes_per_cycle,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        if self.metrics is not None:
            self._m_commits = self.metrics.counter(f"{prefix}.commits")
            self._m_packet = self.metrics.histogram(
                f"{prefix}.commit_packet_bytes"
            )
            self._m_unit_cycles = self.metrics.timer(unit_timer)
        else:
            self._m_commits = None
            self._m_packet = None
            self._m_unit_cycles = None
        # Unit key (pid or task id) -> clock at begin/dispatch, for the
        # begin-to-commit timer.  Only populated when metrics are on.
        self._unit_start_clock: Dict[int, int] = {}
        # A fallback resolution (numpy unavailable) warns through the
        # run's tracer when one is attached, else through warnings.
        self._sig_backend = resolve_backend(
            config.sig_backend,
            warn=self.tracer.warn if self.tracer is not None else None,
        )

    # ------------------------------------------------------------------
    # Signature backend
    # ------------------------------------------------------------------

    def resolve_sig_backend(self) -> Any:
        """The run's signature backend, resolved once at construction."""
        return self._sig_backend

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------

    def trace_event(self, kind: str, **fields: Any) -> None:
        """Emit one trace event when tracing is enabled."""
        if self.tracer is not None:
            self.tracer.emit(kind, **fields)

    def trace_run_begin(self, sim: str, **fields: Any) -> None:
        """Stamp the tracer context and emit ``run.begin``."""
        if self.tracer is not None:
            self.tracer.set_context(sim=sim, scheme=self.scheme.name)
            self.tracer.emit("run.begin", **fields)

    def trace_run_end(self) -> None:
        """Emit ``run.end`` with the run's headline numbers."""
        if self.tracer is not None:
            self.tracer.emit(
                "run.end",
                cycles=self.stats.cycles,
                commits=self.stats.commits,
                squashes=self.stats.squashes,
            )

    # ------------------------------------------------------------------
    # Commit accounting
    # ------------------------------------------------------------------

    def charge_commit_bus(
        self, request_time: int, packet_bytes: int, port: int = 0
    ) -> int:
        """Arbitrate the commit packet onto the bus.

        Returns the clock after bus occupancy, transfer, and the
        substrate's per-commit processor overhead.  ``port`` is the
        committing processor id — the legacy bus ignores it; the timed
        model attributes arbitration wait to it.
        """
        end = self.bus.acquire_commit(request_time, packet_bytes, port=port)
        return end + self.params.commit_overhead_cycles

    def finalize_bus_stats(self) -> None:
        """Copy the bus's traffic (and, when timed, contention) counters
        into ``self.stats`` at end of run."""
        self.stats.bandwidth = self.bus.bandwidth
        if isinstance(self.bus, TimedBus):
            self.stats.bus_grants = self.bus.grants
            self.stats.bus_requests = self.bus.requests
            self.stats.bus_wait_cycles = self.bus.wait_cycles
            self.stats.bus_busy_cycles = self.bus.busy_cycles
            self.stats.bus_max_queue_depth = self.bus.max_queue_depth
            self.stats.bus_wait_by_port = dict(
                sorted(self.bus.wait_by_port.items())
            )

    def start_unit_timer(self, unit_key: int, clock: int) -> None:
        """Mark a unit's begin/dispatch/restart time for the cycle timer."""
        if self._m_unit_cycles is not None:
            self._unit_start_clock[unit_key] = clock

    def note_commit(
        self, packet_bytes: int, unit_key: int, clock: int, **trace_fields: Any
    ) -> None:
        """Count, time, and trace one commit.

        The traced ``commit`` event carries the packet size and the INV
        bandwidth category (commit packets are invalidation traffic in
        Figure 13's taxonomy) plus the substrate's identifying fields.
        """
        if self._m_commits is not None:
            self._m_commits.inc()
            self._m_packet.observe(packet_bytes)
            start = self._unit_start_clock.pop(unit_key, None)
            if start is not None:
                self._m_unit_cycles.observe(clock - start)
        if self.tracer is not None:
            self.tracer.emit(
                "commit",
                packet_bytes=packet_bytes,
                category=BandwidthCategory.INV.value,
                clock=clock,
                **trace_fields,
            )

    # ------------------------------------------------------------------
    # Squash accounting
    # ------------------------------------------------------------------

    def note_squash(
        self, cause: str, count_false_positive: bool = False, **trace_fields: Any
    ) -> None:
        """Count one squash (total, per cause, optional false-positive
        counter) and emit the ``squash`` event."""
        if self.metrics is not None:
            self.metrics.counter(f"{self._spec_prefix}.squashes").inc()
            self.metrics.counter(
                f"{self._spec_prefix}.squashes.{cause}"
            ).inc()
            if count_false_positive:
                self.metrics.counter(
                    f"{self._spec_prefix}.squashes.false_positive"
                ).inc()
        if self.tracer is not None:
            self.tracer.emit("squash", cause=cause, **trace_fields)

    # ------------------------------------------------------------------
    # Signature-expansion accounting (Bulk schemes)
    # ------------------------------------------------------------------

    def note_sig_expansion(
        self,
        op: str,
        commit_invalidated: Optional[int] = None,
        decode: bool = False,
        **event_fields: Any,
    ) -> None:
        """Count one signature expansion and emit its ``sig.expand`` event.

        ``commit_invalidated`` feeds the ``sig.commit_invalidations``
        counter (commit-side expansions only); ``decode`` additionally
        bumps ``sig.decodes`` (partial rollback runs delta-decode).
        """
        if self.metrics is not None:
            self.metrics.counter("sig.expansions").inc()
            if commit_invalidated is not None:
                self.metrics.counter("sig.commit_invalidations").inc(
                    commit_invalidated
                )
            if decode:
                self.metrics.counter("sig.decodes").inc()
        if self.tracer is not None:
            self.tracer.emit("sig.expand", op=op, **event_fields)

    # ------------------------------------------------------------------
    # Set Restriction
    # ------------------------------------------------------------------

    def charge_safe_writebacks(
        self,
        cache: Any,
        set_index: int,
        now: Optional[int] = None,
        port: Optional[int] = None,
    ) -> int:
        """Write back every non-speculative dirty line in one cache set.

        The Set Restriction's WRITEBACK_NONSPEC action (Section 4.3):
        non-speculative dirty data mirrors memory in this model, so each
        writeback costs one bus message and a clean bit.  ``now`` and
        ``port`` stamp the messages for the timed bus, as in
        :meth:`~repro.coherence.bus.Bus.record`.  Returns the number of
        lines written back.
        """
        written_back = 0
        for line in cache.dirty_lines_in_set(set_index):
            self.bus.record(_WRITEBACK, now=now, port=port)
            cache.clean(line.line_address)
            self.stats.safe_writebacks += 1
            written_back += 1
        return written_back
