"""The benchmark's five workloads.

Each workload is a list of *operations* — calls of the program's public
entry points (``run_tm_comparison``, ``run_tls_comparison``,
``run_checkpoint_comparison``, ``collect_tm_samples``,
``sweep_signature_configs``, and ``repro reproduce`` through
``repro.cli.main``) — built from the seed by the program's own
generators.  After the timed region, every operation's result is reduced
to canonical bytes (``canonical_json(comparison_to_dict(...))``, the
sweep rows, or the reproduce artifacts) and hashed; ``run.py`` compares
those digests across passes, between the cold and warm run, between the
traced and untraced run, and, for seed 42, against ``digests.json``.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``: together they put every layer on both sides of a likely
change (one workload exercises it, another bypasses it).
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The timed bus every non-default run uses.
TIMED_BUS = "timed:latency=4,policy=round-robin"

Operation = Tuple[str, Callable[[], Any]]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``operations(seed, size, workdir)`` builds the pass's calls;
    ``outputs(label, result)`` maps one result to named canonical bytes;
    ``problems(label, result, warm)`` lists seed-independent check
    failures; ``accesses(seed, size)`` counts the simulated input memory
    accesses one cold run consumes.  ``layers`` are the layers a traced
    pass must see called.  ``marks`` name ``(module, class or None,
    function)`` whose returns split a long operation into separately
    speed-calibrated segments (see ``passes.py``), at the name the
    program looks up.
    """

    name: str
    backend: str
    modules: Tuple[str, ...]
    full: Dict[str, int]
    quick: Dict[str, int]
    operations: Callable[[int, Dict[str, int], Path], List[Operation]]
    outputs: Callable[[str, Any], Dict[str, bytes]]
    accesses: Callable[[int, Dict[str, int]], int]
    layers: Tuple[str, ...]
    problems: Callable[[str, Any, bool], List[str]] = lambda *_: []
    marks: Tuple[Tuple[str, Optional[str], str], ...] = ()


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------

def _comparison_bytes(label: str, comparison: Any) -> Dict[str, bytes]:
    from repro.runner.serialize import canonical_json, comparison_to_dict

    return {label: canonical_json(comparison_to_dict(comparison)).encode()}


def _memory_accesses(events) -> int:
    from repro.sim.trace import EventKind

    memory = (EventKind.LOAD, EventKind.STORE)
    return sum(1 for event in events if event.kind in memory)


def _tm_accesses(apps, txns: int, seed: int, runs: int) -> int:
    from repro.tm.params import TM_DEFAULTS
    from repro.workloads.kernels import build_tm_workload

    total = 0
    for app in apps:
        for trace in build_tm_workload(
            app, num_threads=TM_DEFAULTS.num_processors,
            txns_per_thread=txns, seed=seed,
        ):
            total += _memory_accesses(trace.events)
    return total * runs


def _tls_accesses(apps, tasks: int, seed: int) -> int:
    from repro.spec import scheme_names
    from repro.workloads.tls_spec import build_tls_workload

    runs = len(scheme_names("tls")) + 1  # every scheme + the sequential run
    total = 0
    for app in apps:
        for task in build_tls_workload(app, num_tasks=tasks, seed=seed):
            total += _memory_accesses(task.events)
    return total * runs


def _tm_runs() -> int:
    from repro.spec import scheme_names

    return len(scheme_names("tm", include_variants=True))


def _tm_apps() -> List[str]:
    from repro.workloads.kernels import TM_KERNELS

    return sorted(TM_KERNELS)


def _tls_apps() -> List[str]:
    from repro.workloads.tls_spec import TLS_APPLICATIONS

    return sorted(TLS_APPLICATIONS)


def _checkpoint_apps() -> List[str]:
    from repro.checkpoint.workload import CHECKPOINT_WORKLOADS

    return sorted(CHECKPOINT_WORKLOADS)


# ----------------------------------------------------------------------
# tm-paper
# ----------------------------------------------------------------------

def _tm_paper_operations(seed, size, workdir) -> List[Operation]:
    from repro.analysis.experiments import run_tm_comparison

    return [
        (f"tm:{app}", lambda app=app: run_tm_comparison(
            app, txns_per_thread=size["txns"], seed=seed,
            include_partial=True,
        ))
        for app in _tm_apps()
    ]


def _tm_paper_accesses(seed, size) -> int:
    return _tm_accesses(_tm_apps(), size["txns"], seed, _tm_runs())


# ----------------------------------------------------------------------
# tls-paper
# ----------------------------------------------------------------------

def _tls_paper_operations(seed, size, workdir) -> List[Operation]:
    from repro.analysis.experiments import run_tls_comparison

    return [
        (f"tls:{app}", lambda app=app: run_tls_comparison(
            app, num_tasks=size["tasks"], seed=seed,
        ))
        for app in _tls_apps()
    ]


def _tls_paper_accesses(seed, size) -> int:
    return _tls_accesses(_tls_apps(), size["tasks"], seed)


# ----------------------------------------------------------------------
# sig-accuracy
# ----------------------------------------------------------------------

def _sig_accuracy_operations(seed, size, workdir) -> List[Operation]:
    """Figure 15 / Table 8 as ``repro reproduce`` runs it: the samples of
    every TM application, then one sweep over all Table 8
    configurations."""
    from repro.analysis.accuracy import (
        collect_tm_samples,
        sweep_signature_configs,
    )
    from repro.core.signature_config import TABLE8_CONFIGS

    samples: List[Any] = []

    def collect():
        samples[:] = collect_tm_samples(
            _tm_apps(), txns_per_thread=size["txns"], seed=seed,
            max_samples_per_app=size["samples"],
        )
        return samples

    def sweep():
        return sweep_signature_configs(
            TABLE8_CONFIGS, samples,
            permutations_per_config=size["permutations"], seed=seed,
        )

    return [("samples", collect), ("sweep", sweep)]


def _sig_accuracy_outputs(label, result) -> Dict[str, bytes]:
    from repro.runner.serialize import canonical_json

    if label == "samples":
        data = [[sorted(part) for part in sample] for sample in result]
    else:
        data = [asdict(row) for row in result]
    return {label: canonical_json(data).encode()}


def _sig_accuracy_accesses(seed, size) -> int:
    return _tm_accesses(_tm_apps(), size["txns"], seed, runs=1)


# ----------------------------------------------------------------------
# timed-numpy-obs
# ----------------------------------------------------------------------

_TIMED_TM_APPS = ("cb", "sjbb2k")
_TIMED_TLS_APPS = ("crafty",)
_TIMED_DEPTHS = (1, 2, 3)


def _timed_operations(seed, size, workdir) -> List[Operation]:
    from repro.analysis.experiments import (
        run_checkpoint_comparison,
        run_tls_comparison,
        run_tm_comparison,
    )
    from repro.obs import Observability

    knobs = {"bus": TIMED_BUS, "sig_backend": "numpy", "seed": seed}
    operations: List[Operation] = [
        (f"tm:{app}", lambda app=app: run_tm_comparison(
            app, txns_per_thread=size["tm_txns"], include_partial=True,
            obs=Observability(), **knobs,
        ))
        for app in _TIMED_TM_APPS
    ]
    operations += [
        (f"tls:{app}", lambda app=app: run_tls_comparison(
            app, num_tasks=size["tls_tasks"], obs=Observability(), **knobs,
        ))
        for app in _TIMED_TLS_APPS
    ]
    operations += [
        (f"checkpoint:{app}:depth={depth}",
         lambda app=app, depth=depth: run_checkpoint_comparison(
             app, num_epochs=size["epochs"], rollback_depth=depth,
             obs=Observability(), **knobs,
         ))
        for app in _checkpoint_apps()
        for depth in _TIMED_DEPTHS
    ]
    return operations


def _timed_accesses(seed, size) -> int:
    from repro.checkpoint.workload import build_checkpoint_workload
    from repro.spec import scheme_names

    total = _tm_accesses(_TIMED_TM_APPS, size["tm_txns"], seed, _tm_runs())
    total += _tls_accesses(_TIMED_TLS_APPS, size["tls_tasks"], seed)
    checkpoint_runs = len(scheme_names("checkpoint")) * len(_TIMED_DEPTHS)
    for app in _checkpoint_apps():
        epochs = build_checkpoint_workload(
            app, num_epochs=size["epochs"], seed=seed
        )
        total += checkpoint_runs * sum(len(epoch.ops) for epoch in epochs)
    return total


# ----------------------------------------------------------------------
# reproduce
# ----------------------------------------------------------------------

@dataclass
class ReproduceResult:
    """What one ``repro reproduce`` invocation left behind."""

    exit_code: int
    stdout: str
    artifacts: Dict[str, bytes]


_SERVED = re.compile(r"^(\d+) grid point\(s\) served from cache$", re.M)


def _reproduce_operations(seed, size, workdir) -> List[Operation]:
    from repro.cli import main

    out = workdir / "reproduce"
    argv = [
        "reproduce", "--jobs", "2",
        "--tm-txns", str(size["tm_txns"]),
        "--tls-tasks", str(size["tls_tasks"]),
        "--samples", str(size["samples"]),
        "--seed", str(seed),
        "--out", str(out),
    ]

    def reproduce() -> ReproduceResult:
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            code = main(argv)
        artifacts = {
            path.name: path.read_bytes()
            for path in sorted(out.iterdir()) if path.is_file()
        }
        return ReproduceResult(code, stream.getvalue(), artifacts)

    return [("reproduce", reproduce)]


def _reproduce_outputs(label, result) -> Dict[str, bytes]:
    return dict(result.artifacts)


def reproduce_cache_hits(result: ReproduceResult) -> int:
    """Grid points the run served from its result cache."""
    match = _SERVED.search(result.stdout)
    return int(match.group(1)) if match else 0


def _reproduce_problems(label, result, warm) -> List[str]:
    problems = []
    if result.exit_code != 0:
        problems.append(f"reproduce exited with {result.exit_code}")
    points = len(_tm_apps()) + len(_tls_apps())
    served = reproduce_cache_hits(result)
    expected = points if warm else 0
    if served != expected:
        problems.append(
            f"{'warm' if warm else 'cold'} reproduce served {served} of "
            f"{points} grid points from cache, expected {expected}"
        )
    return problems


def _reproduce_accesses(seed, size) -> int:
    total = _tm_accesses(_tm_apps(), size["tm_txns"], seed, _tm_runs())
    total += _tls_accesses(_tls_apps(), size["tls_tasks"], seed)
    # ``reproduce`` samples Figure 15 from exact Lazy runs at half the
    # grid's transactions (at least 4).
    total += _tm_accesses(
        _tm_apps(), max(4, size["tm_txns"] // 2), seed, runs=1
    )
    return total


# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------

_SIM_LAYERS = ("workloads", "core.signature", "cache", "mem", "bus", "spec",
               "analysis")

#: Each simulator run (each scheme, and TLS's sequential baseline) ends a
#: speed-calibrated segment: the shorter the segments, the closer the
#: slices at their ends follow the machine.
_SYSTEM_MARKS = (
    ("repro.tm.system", "TmSystem", "run"),
    ("repro.tls.system", "TlsSystem", "run"),
    ("repro.analysis.experiments", None, "simulate_sequential"),
    ("repro.checkpoint.system", "CheckpointSystem", "run"),
)

#: So does each configuration of the Table 8 sweep.
_ACCURACY_MARKS = _SYSTEM_MARKS + (
    ("repro.analysis.accuracy", None, "average_compressed_bits"),
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="tm-paper",
            backend="packed",
            modules=("repro.analysis.experiments",),
            full={"txns": 3},
            quick={"txns": 1},
            operations=_tm_paper_operations,
            outputs=_comparison_bytes,
            accesses=_tm_paper_accesses,
            layers=_SIM_LAYERS + ("core.codec", "core.bdm", "tm",
                                  "tm.scheme"),
            marks=_SYSTEM_MARKS,
        ),
        Workload(
            name="tls-paper",
            backend="packed",
            modules=("repro.analysis.experiments",),
            full={"tasks": 40},
            quick={"tasks": 8},
            operations=_tls_paper_operations,
            outputs=_comparison_bytes,
            accesses=_tls_paper_accesses,
            layers=_SIM_LAYERS + ("core.codec", "core.bdm", "sim", "tls",
                                  "tls.scheme"),
            marks=_SYSTEM_MARKS,
        ),
        Workload(
            name="sig-accuracy",
            backend="packed",
            modules=("repro.analysis.accuracy",),
            full={"txns": 3, "samples": 100, "permutations": 1},
            quick={"txns": 1, "samples": 10, "permutations": 1},
            operations=_sig_accuracy_operations,
            outputs=_sig_accuracy_outputs,
            accesses=_sig_accuracy_accesses,
            layers=("workloads", "core.signature", "tm", "tm.scheme",
                    "analysis"),
            marks=_ACCURACY_MARKS,
        ),
        Workload(
            name="timed-numpy-obs",
            backend="numpy",
            modules=("repro.analysis.experiments", "repro.obs"),
            full={"tm_txns": 3, "tls_tasks": 40, "epochs": 32},
            quick={"tm_txns": 1, "tls_tasks": 8, "epochs": 8},
            operations=_timed_operations,
            outputs=_comparison_bytes,
            accesses=_timed_accesses,
            layers=_SIM_LAYERS + ("core.codec", "core.bdm", "sim", "tm",
                                  "tls", "checkpoint", "tm.scheme",
                                  "tls.scheme", "checkpoint.scheme", "obs"),
            marks=_SYSTEM_MARKS,
        ),
        Workload(
            name="reproduce",
            backend="packed",
            modules=("repro.cli", "repro.runner"),
            full={"tm_txns": 2, "tls_tasks": 20, "samples": 30},
            quick={"tm_txns": 1, "tls_tasks": 8, "samples": 5},
            operations=_reproduce_operations,
            outputs=_reproduce_outputs,
            accesses=_reproduce_accesses,
            layers=("workloads", "core.signature", "tm", "analysis",
                    "runner"),
            problems=_reproduce_problems,
            # The grid ends a segment only when it returns: while it runs,
            # the pool's workers share the machine with any slice the
            # parent would time.
            marks=(("repro.runner.grid", "GridRunner", "run"),)
            + _ACCURACY_MARKS,
        ),
    )
}


# ----------------------------------------------------------------------
# Observing simulator runs
# ----------------------------------------------------------------------

class RunObserver:
    """Keeps every in-process simulator run's result, tagged with the
    operation that caused it.

    The ``run`` methods of the three system classes are wrapped so the
    pass can read each run's stats and, for TLS, its final memory —
    results the comparison functions drop.  The wrapper only appends to a
    list; the digesting happens after the timed region.
    """

    def __init__(self) -> None:
        self.tag: Tuple[str, str] = ("", "")
        #: ``(phase, label, substrate, result)`` per run.
        self.runs: List[Tuple[str, str, str, Any]] = []

    def install(self) -> None:
        from repro.checkpoint.system import CheckpointSystem
        from repro.tls.system import TlsSystem
        from repro.tm.system import TmSystem

        for substrate, cls in (
            ("tm", TmSystem), ("tls", TlsSystem),
            ("checkpoint", CheckpointSystem),
        ):
            cls.run = self._observe(substrate, cls.run)

    def _observe(self, substrate: str, run: Callable) -> Callable:
        runs = self.runs
        observer = self

        def observed(system):
            result = run(system)
            runs.append((*observer.tag, substrate, result))
            return result

        observed.__name__ = run.__name__
        observed.__qualname__ = run.__qualname__
        return observed

    def stats(self, phase: str) -> List[Any]:
        """The stats object of every run of ``phase``."""
        return [
            getattr(result, "stats", result)
            for run_phase, _, _, result in self.runs
            if run_phase == phase
        ]

    def tls_memory_problems(self, phase: str, label: str) -> Optional[str]:
        """Whether every TLS scheme of one operation ended with the same
        nonzero final memory."""
        memories = [
            (result.scheme, {
                word: value
                for word, value in result.memory.snapshot().items() if value
            })
            for run_phase, run_label, substrate, result in self.runs
            if (run_phase, run_label, substrate) == (phase, label, "tls")
        ]
        if not memories:
            return None
        reference_scheme, reference = memories[0]
        for scheme, memory in memories[1:]:
            if memory != reference:
                return (
                    f"{label}: TLS final memory of {scheme} differs from "
                    f"{reference_scheme}"
                )
        return None
