"""End-to-end experiment drivers for the substrate comparisons.

These are the functions the grid runner and the CLI call:
each runs one application under every scheme of one substrate (TM, TLS,
or checkpoint) with shared parameters and returns the measurements that
feed the corresponding table or figure.  Which schemes exist — and in
what order they run and print — comes from the scheme table in
:mod:`repro.spec.registry`, never from literal lists here.

Every driver takes the run options (``bus``, ``sig_backend``) as
keywords, builds one :class:`~repro.spec.RunConfig` from them, and hands
it to every per-scheme system.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.analysis.bandwidth import commit_bandwidth_ratio, normalized_breakdown

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
from repro.checkpoint.params import CHECKPOINT_DEFAULTS, CheckpointParams
from repro.checkpoint.stats import CheckpointStats
from repro.checkpoint.system import CheckpointSystem
from repro.checkpoint.workload import build_checkpoint_workload
from repro.errors import SimulationError
from repro.mem.memory import WordMemory
from repro.spec import RunConfig, resolve_scheme, scheme_entries, scheme_names
from repro.tls.params import TLS_DEFAULTS, TlsParams
from repro.tls.stats import TlsStats
from repro.tls.system import TlsSystem, simulate_sequential
from repro.tm.params import TM_DEFAULTS, TmParams
from repro.tm.stats import TmStats
from repro.tm.system import TmSystem
from repro.workloads.kernels import build_tm_workload
from repro.workloads.tls_spec import build_tls_workload


@dataclass
class TmComparison:
    """One application's results under Eager, Lazy, Bulk (and optionally
    Bulk-Partial) — the raw material for Figure 11, Table 7, Figures 13/14.
    """

    app: str
    cycles: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, TmStats] = field(default_factory=dict)

    def speedup_over_eager(self, scheme: str) -> float:
        """Figure 11's metric."""
        return self.cycles["Eager"] / self.cycles[scheme]

    def bandwidth_vs_eager(
        self,
        scheme: str,
        warn: "Optional[object]" = None,
    ) -> Optional[Dict[str, float]]:
        """Figure 13's metric: category percentages of Eager's total.

        ``None`` when the Eager baseline moved no bytes (degenerate
        workload) — callers skip the row rather than crash; the skip is
        reported through ``warn`` by
        :func:`~repro.analysis.bandwidth.normalized_breakdown`.
        """
        return normalized_breakdown(
            self.stats[scheme].bandwidth,
            self.stats["Eager"].bandwidth.total_bytes,
            label=f"{self.app}/{scheme}",
            warn=warn,
        )

    def commit_bandwidth_vs_lazy(self) -> float:
        """Figure 14's metric."""
        return commit_bandwidth_ratio(
            self.stats["Bulk"].bandwidth, self.stats["Lazy"].bandwidth
        )


def run_tm_comparison(
    app: str,
    txns_per_thread: int = 12,
    seed: int = 42,
    params: TmParams = TM_DEFAULTS,
    include_partial: bool = False,
    obs: "Optional[Observability]" = None,
    **run_options: Any,
) -> TmComparison:
    """Run one TM application under every scheme.

    ``include_partial`` adds Bulk with closed-nesting partial rollback
    (the Bulk-Partial bar of Figure 11).  It differs from plain Bulk
    only when a transaction nests; on a workload where none does, an
    unobserved comparison gives Bulk-Partial a copy of Bulk's cycles and
    stats instead of simulating it again (see the rule in the body).

    ``obs`` (optional) instruments every per-scheme run with the shared
    metrics registry and event tracer; each run stamps its own
    ``scheme=...`` context so the merged stream stays attributable.
    An observed comparison simulates every scheme, because each run's
    metrics and trace events are part of its output.

    ``run_options`` are :class:`~repro.spec.RunConfig` fields.
    """
    config = RunConfig(**run_options)
    comparison = TmComparison(app=app)
    # One build serves every scheme: traces are immutable (tuples of
    # named-tuple events), and rebuilding with the same seed produced the
    # identical sequence anyway.
    traces = build_tm_workload(
        app,
        num_threads=params.num_processors,
        txns_per_thread=txns_per_thread,
        seed=seed,
    )
    # TmSystem reads the scheme's ``partial_rollback`` only at a nested
    # TX_BEGIN or TX_END (``_begin``/``_end``) and for a squash from a
    # section past the first (``squash``), and only nested markers open
    # such a section.  So on traces that never nest the flag is cleared
    # from a run's key, and an entry whose key an earlier entry ran
    # takes a deep copy of that run's cycles and stats.  It still runs
    # when observed: its metrics and trace events are output.
    nested = any(trace.max_depth > 1 for trace in traces)
    runs: Dict[tuple, tuple] = {}
    for entry in scheme_entries("tm", include_variants=include_partial):
        scheme = entry.factory()
        key = (type(scheme), nested and scheme.partial_rollback)
        if obs is None and key in runs:
            cycles, stats = runs[key]
            comparison.cycles[entry.name] = cycles
            comparison.stats[entry.name] = copy.deepcopy(stats)
            continue
        result = TmSystem(traces, scheme, params, obs=obs, config=config).run()
        runs[key] = (result.cycles, result.stats)
        comparison.cycles[entry.name] = result.cycles
        comparison.stats[entry.name] = result.stats
    return comparison


@dataclass
class TlsComparison:
    """One application's results under the four TLS configurations —
    the raw material for Figure 10 and Table 6."""

    app: str
    sequential_cycles: int = 0
    cycles: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, TlsStats] = field(default_factory=dict)

    def speedup(self, scheme: str) -> float:
        """Figure 10's metric: speedup over sequential execution."""
        return self.sequential_cycles / self.cycles[scheme]


def run_tls_comparison(
    app: str,
    num_tasks: int = 160,
    seed: int = 42,
    params: TlsParams = TLS_DEFAULTS,
    obs: "Optional[Observability]" = None,
    **run_options: Any,
) -> TlsComparison:
    """Run one TLS application under every TLS scheme
    (``run_options`` are :class:`~repro.spec.RunConfig` fields)."""
    config = RunConfig(**run_options)
    comparison = TlsComparison(app=app)
    # Tasks are immutable static descriptors; the sequential baseline
    # and every scheme share one build (same seed == same sequence).
    tasks = build_tls_workload(app, num_tasks=num_tasks, seed=seed)
    comparison.sequential_cycles, sequential_memory = simulate_sequential(
        tasks, params
    )
    for name in scheme_names("tls"):
        result = TlsSystem(
            tasks, resolve_scheme("tls", name), params, obs=obs, config=config
        ).run()
        # TLS must preserve sequential semantics: every scheme ends with
        # the memory of the sequential run.
        if result.memory != sequential_memory:
            word = _first_differing_word(result.memory, sequential_memory)
            raise SimulationError(
                f"TLS {app}: {name} ends with word {word:#x} = "
                f"{result.memory.load(word)}, the sequential run with "
                f"{sequential_memory.load(word)}"
            )
        result.stats.sequential_cycles = comparison.sequential_cycles
        comparison.cycles[name] = result.cycles
        comparison.stats[name] = result.stats
    return comparison


def _first_differing_word(memory: WordMemory, reference: WordMemory) -> int:
    """The lowest word address at which two memories differ."""
    words = set(memory.snapshot()) | set(reference.snapshot())
    return min(w for w in words if memory.load(w) != reference.load(w))


@dataclass
class CheckpointComparison:
    """One workload's results under every checkpoint scheme at one
    rollback depth — the raw material of the checkpoint report."""

    app: str
    rollback_depth: int
    cycles: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, CheckpointStats] = field(default_factory=dict)

    def slowdown_vs_exact(self, scheme: str) -> float:
        """Cycles relative to the exact-log baseline (1.0 = parity)."""
        return self.cycles[scheme] / self.cycles["Exact"]

    def commit_bandwidth_vs_exact(self) -> float:
        """Bulk's commit bytes as a percentage of the exact log's
        enumerated bytes — the checkpoint analogue of Figure 14."""
        return commit_bandwidth_ratio(
            self.stats["Bulk"].bandwidth, self.stats["Exact"].bandwidth
        )


def run_checkpoint_comparison(
    app: str,
    num_epochs: int = 64,
    seed: int = 42,
    rollback_depth: int = 1,
    params: CheckpointParams = CHECKPOINT_DEFAULTS,
    obs: "Optional[Observability]" = None,
    **run_options: Any,
) -> CheckpointComparison:
    """Run one checkpoint workload under every checkpoint scheme
    (``run_options`` are :class:`~repro.spec.RunConfig` fields).

    Every scheme consumes the identical (immutable) epoch stream at the
    same rollback depth, so cycle and bandwidth ratios are meaningful.
    """
    config = RunConfig(**run_options)
    comparison = CheckpointComparison(app=app, rollback_depth=rollback_depth)
    epochs = build_checkpoint_workload(app, num_epochs=num_epochs, seed=seed)
    for name in scheme_names("checkpoint"):
        system = CheckpointSystem(
            resolve_scheme("checkpoint", name),
            epochs,
            params,
            rollback_depth=rollback_depth,
            obs=obs,
            config=config,
        )
        stats = system.run()
        comparison.cycles[name] = stats.cycles
        comparison.stats[name] = stats
    return comparison
