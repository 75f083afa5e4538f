"""Parallel execution of experiment grids.

The evaluation sweeps are embarrassingly parallel: every (application ×
seed × knob) grid point is an independent, deterministic simulation.
:class:`GridRunner` fans the points of a grid out over a
:class:`concurrent.futures.ProcessPoolExecutor` and merges the results
deterministically — the merged output is **byte-identical** for any
worker count, because

* each point's result is reduced to its canonical JSON form
  (:mod:`repro.runner.serialize`) inside the worker, and
* the merge orders points by their canonical keys, never by completion
  order.

A point is a pure function of its parameters, so it runs once: the
first point to raise stops the run.  With a cache directory configured
(:mod:`repro.runner.cache`), each point is persisted as it finishes, and
re-running a sweep, even one that was interrupted or failed, only
recomputes points that are missing or whose parameters or simulator code
changed.  The accuracy study is the exception: it is never cached, so
every run recomputes it.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.errors import ConfigurationError, SimulationError
from repro.runner.cache import ResultCache
from repro.runner.serialize import (
    canonical_json,
    comparison_from_dict,
    comparison_to_dict,
)
from repro.spec.config import LABEL_HIDDEN, RUN_OPTIONS, RunConfig

Knobs = Tuple[Tuple[str, Any], ...]


class GridExecutionError(SimulationError):
    """A grid point raised something other than a typed input error; the
    message names the point's key and the cause is chained."""


@dataclass(frozen=True)
class GridPoint:
    """One cell of an experiment grid.

    ``knobs`` are the extra keyword arguments of the point's driver
    (``txns_per_thread``, ``num_tasks``, ``include_partial``, …),
    restricted to JSON-serialisable values so the point can be hashed
    into a stable cache key.
    """

    #: "tm", "tls" or "checkpoint" (a comparison of the schemes), or
    #: "accuracy" (the Figure 15 / Table 8 study, whose ``app`` names a
    #: signature catalogue).
    kind: str
    app: str
    seed: int = 42
    knobs: Knobs = ()

    def __post_init__(self) -> None:
        if self.kind not in ("tm", "tls", "checkpoint", "accuracy"):
            raise ValueError(f"unknown grid point kind {self.kind!r}")

    @property
    def key(self) -> str:
        """Canonical identity of the point: kind, app, seed, knobs.

        Run options in :data:`LABEL_HIDDEN` (the signature backend) are
        omitted: they cannot change results, and the artifacts this
        label names must not depend on them.  The payload keeps them,
        so cached results never leak across backends.
        """
        knob_text = ",".join(
            f"{name}={value!r}"
            for name, value in self.knobs
            if name not in LABEL_HIDDEN
        )
        return f"{self.kind}:{self.app}:seed={self.seed}:{knob_text}"

    def payload(self) -> Dict[str, Any]:
        """The JSON payload workers execute and caches hash."""
        return {
            "kind": self.kind,
            "app": self.app,
            "seed": self.seed,
            "knobs": dict(self.knobs),
        }


def _point(
    kind: str, app: str, seed: int, knobs: Dict[str, Any]
) -> GridPoint:
    """A grid point whose run options are validated through a
    :class:`RunConfig`, of which only the non-default ones become
    knobs."""
    config = RunConfig(
        **{name: knobs.pop(name) for name in RUN_OPTIONS if name in knobs}
    )
    knobs.update(config.knobs())
    return GridPoint(kind, app, seed, tuple(sorted(knobs.items())))


def tm_point(app: str, seed: int = 42, **knobs: Any) -> GridPoint:
    """A TM grid point (extra knobs go to ``run_tm_comparison``)."""
    return _point("tm", app, seed, knobs)


def tls_point(app: str, seed: int = 42, **knobs: Any) -> GridPoint:
    """A TLS grid point (extra knobs go to ``run_tls_comparison``)."""
    return _point("tls", app, seed, knobs)


def checkpoint_point(app: str, seed: int = 42, **knobs: Any) -> GridPoint:
    """A checkpoint grid point (knobs go to ``run_checkpoint_comparison``)."""
    return _point("checkpoint", app, seed, knobs)


def accuracy_point(
    app: str = "table8", seed: int = 42, **knobs: Any
) -> GridPoint:
    """A Figure 15 / Table 8 grid point (knobs go to
    ``run_accuracy_study``, which takes no run options)."""
    return GridPoint("accuracy", app, seed, tuple(sorted(knobs.items())))


#: Relative cost per workload unit of one grid point, by kind.
#: TM runs every scheme over ``num_processors`` interleaved trace streams
#: (and Bulk-Partial on top), TLS runs four schemes over one task list,
#: and a checkpoint point is a single in-order processor — so at default
#: workload sizes tm > tls > checkpoint, which is what the submission
#: order must reflect.  The accuracy study (seven sampling runs, then
#: 23 configurations scored over the samples) costs more than the
#: costliest TM point of ``repro reproduce``, at its default sizing and
#: at the end-to-end benchmark's, so it enters the pool first.
_KIND_WEIGHT = {"tm": 40.0, "tls": 2.0, "checkpoint": 1.0, "accuracy": 4.0}

#: The knob that scales each kind's work, with the driver's default.
_KIND_UNITS = {
    "tm": ("txns_per_thread", 12),
    "tls": ("num_tasks", 160),
    "checkpoint": ("num_epochs", 64),
    "accuracy": ("max_samples_per_app", 1500),
}


def execution_cost(point: GridPoint) -> float:
    """Heuristic execution cost of one grid point.

    Longest-processing-time-first submission needs only a *ranking*, not
    cycle-accurate predictions: expensive TM sweeps must enter the pool
    before cheap checkpoint points so the tail of a grid run is not one
    long TM point executing alone after everything else drained.
    """
    knobs = dict(point.knobs)
    unit_knob, default_units = _KIND_UNITS[point.kind]
    cost = _KIND_WEIGHT[point.kind] * knobs.get(unit_knob, default_units)
    if point.kind == "checkpoint":
        # Rollbacks re-execute epochs, multiplying the work.
        cost *= knobs.get("rollback_depth", 1)
    return cost


def submission_order(points: Sequence[GridPoint]) -> List[GridPoint]:
    """Points ordered for execution: costliest first, key as tiebreak.

    Only the *submission* order changes — the merge is always by sorted
    canonical key, so results stay byte-identical for any worker count
    and any ordering policy.
    """
    return sorted(
        points, key=lambda point: (-execution_cost(point), point.key)
    )


def _execute_point(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one grid point and reduce it to its canonical result dict.

    Module-level so it pickles into pool workers; imports the drivers
    lazily to keep worker start-up importing only what it runs.

    With ``payload["obs"]`` set, the point runs under a fresh
    :class:`~repro.obs.Observability` bundle and the return value is a
    wrapper ``{"comparison": ..., "metrics": ..., "trace": ...}`` whose
    extra members are the point's metrics snapshot and deterministic
    trace summary.  The instrumentation never feeds back into the
    simulation, so the ``"comparison"`` member is identical to the bare
    result of an uninstrumented run.
    """
    from repro.analysis.accuracy import run_accuracy_study
    from repro.analysis.experiments import (
        run_checkpoint_comparison,
        run_tls_comparison,
        run_tm_comparison,
    )

    drivers = {
        "tm": run_tm_comparison,
        "tls": run_tls_comparison,
        "checkpoint": run_checkpoint_comparison,
        "accuracy": run_accuracy_study,
    }
    knobs = dict(payload["knobs"])
    obs = None
    if payload.get("obs"):
        from repro.obs import Observability

        obs = Observability()
        knobs["obs"] = obs
    comparison = drivers[payload["kind"]](
        payload["app"], seed=payload["seed"], **knobs
    )
    encoded = comparison_to_dict(comparison)
    if obs is None:
        return encoded
    return {
        "comparison": encoded,
        "metrics": obs.metrics.snapshot(),
        "trace": obs.tracer.summary(),
    }


def _warm_worker() -> None:
    """Pool-worker initializer: pre-import and pre-build the hot state.

    Every grid point pays the same start-up costs inside a fresh worker
    process: importing the experiment drivers, materialising the Table 8
    signature catalogue (each config builds its permutation and layout)
    and the two paper-default configs.  Doing it once per *worker*
    instead of once per *point* removes that cost from every point
    after the first.  Warming touches only process-local
    caches — it computes nothing a point's simulation depends on — so
    results, merge order, and cache keys are byte-identical with or
    without it.
    """
    import repro.analysis.experiments  # noqa: F401 - imported for side effect
    from repro.core.backend import suppress_fallback_warnings
    from repro.core.signature_config import (  # noqa: F401
        TABLE8_CONFIGS,
        default_tls_config,
        default_tm_config,
    )

    # The parent pre-resolves every backend the grid names and emits the
    # single user-facing degradation warning; each fresh worker would
    # otherwise repeat it (once per process x jobs workers).
    suppress_fallback_warnings()
    default_tm_config()
    default_tls_config()


@dataclass
class GridResult:
    """The deterministic merge of one grid execution."""

    #: Canonical point key -> canonical result dictionary, in key order.
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Keys that were served from the on-disk cache.
    cached_keys: List[str] = field(default_factory=list)
    #: Point key -> metrics snapshot (observability runs only).
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Point key -> deterministic trace summary (observability runs only).
    traces: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def to_json(self) -> str:
        """The merged results as canonical JSON (byte-identical for any
        worker count)."""
        return canonical_json(self.results)

    def merged_metrics(self) -> Dict[str, Any]:
        """All points' metrics merged in canonical key order.

        :func:`repro.obs.metrics.merge_snapshots` is associative and
        commutative, and the inputs are iterated in sorted-key order, so
        the merge is byte-identical for any worker count.
        """
        from repro.obs.metrics import merge_snapshots

        return merge_snapshots(
            self.metrics[key] for key in sorted(self.metrics)
        )

    def metrics_json(self) -> str:
        """Canonical JSON of the merged and per-point metrics."""
        return canonical_json(
            {"merged": self.merged_metrics(), "per_point": self.metrics}
        )

    def trace_jsonl(self) -> str:
        """One canonical-JSON trace-summary line per point, in key order."""
        return "".join(
            canonical_json({"key": key, "summary": self.traces[key]}) + "\n"
            for key in sorted(self.traces)
        )

    def comparison(self, point: GridPoint) -> Any:
        """The reconstructed comparison object of one point."""
        return comparison_from_dict(self.results[point.key])

    def comparisons(self) -> Dict[str, Any]:
        """Every result reconstructed, keyed by point key."""
        return {
            key: comparison_from_dict(data) for key, data in self.results.items()
        }


def default_jobs() -> int:
    """Auto-detected worker count: one per *available* CPU.

    Containerised and pinned runs usually have a CPU affinity mask far
    smaller than the host's core count; ``os.cpu_count()`` reports the
    host and would oversubscribe the mask.  Where the platform exposes it, the
    scheduling affinity of this process is the honest answer.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


class GridRunner:
    """Executes experiment grids, serially or across worker processes.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` auto-detects (:func:`default_jobs`);
        ``1`` runs in-process with no pool at all.
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
    observability:
        Instrument every point with a per-worker metrics registry and
        event tracer; snapshots/summaries land on the
        :class:`GridResult` (``metrics`` / ``traces``), merged in
        canonical key order.  Instrumented and uninstrumented runs use
        distinct cache keys, and the simulation results themselves are
        unaffected either way.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: "Optional[str | os.PathLike[str]]" = None,
        observability: bool = False,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = default_jobs() if jobs is None else jobs
        self.cache: Optional[ResultCache] = (
            None if cache_dir is None else ResultCache(cache_dir)
        )
        self.observability = observability

    def _observes(self, point: GridPoint) -> bool:
        """Whether ``point`` runs instrumented.  The accuracy study never
        does: the metrics and trace summaries are those of the scheme
        comparisons, which the instrumented goldens pin point by point."""
        return self.observability and point.kind != "accuracy"

    def _caches(self, point: GridPoint) -> bool:
        """Whether ``point`` is read from and stored in the cache.  The
        accuracy study is recomputed on every run, so a cache directory
        holds the scheme comparisons only."""
        return self.cache is not None and point.kind != "accuracy"

    def _payload(self, point: GridPoint) -> Dict[str, Any]:
        """The point's execution/cache payload.  Only instrumented points
        gain the extra ``"obs"`` member, so plain runs keep their cache
        keys (and cached results) from before instrumentation existed."""
        payload = point.payload()
        if self._observes(point):
            payload["obs"] = True
        return payload

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self, points: Iterable[GridPoint]) -> GridResult:
        """Execute every point and return the deterministic merge.

        Each point that is not in the cache runs once and, unless it is
        the accuracy study, is cached as soon as it finishes.  The first
        point to raise stops the run: no point that is not yet running
        or handed to a pool worker starts, a
        :class:`~repro.errors.ConfigurationError` reaches the caller as
        itself, and any other error becomes a :class:`GridExecutionError`
        that names the point's key, chained to the cause.
        """
        ordered = sorted(set(points), key=lambda point: point.key)
        if len(ordered) != len({point.key for point in ordered}):
            raise ValueError("grid contains points with duplicate keys")

        result = GridResult()
        computed: Dict[str, Dict[str, Any]] = {}
        pending: List[GridPoint] = []
        for point in ordered:
            cached = self._cache_lookup(point)
            if cached is not None:
                computed[point.key] = cached
                result.cached_keys.append(point.key)
            else:
                pending.append(point)

        # Longest-processing-time-first: a trailing expensive TM point
        # must not execute alone after the cheap points drain.
        with closing(self._finished(submission_order(pending))) as finished:
            for point, outcome in finished:
                try:
                    entry = outcome()
                except ConfigurationError:
                    raise
                except Exception as error:
                    raise GridExecutionError(
                        f"grid point {point.key} failed: "
                        f"{type(error).__name__}: {error}"
                    ) from error
                self._cache_store(point, entry)
                computed[point.key] = entry

        for point in ordered:
            key, entry = point.key, computed[point.key]
            if self._observes(point):
                result.results[key] = entry["comparison"]
                result.metrics[key] = entry["metrics"]
                result.traces[key] = entry["trace"]
            else:
                result.results[key] = entry
        return result

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _finished(
        self, points: Sequence[GridPoint]
    ) -> Iterator[Tuple[GridPoint, Callable[[], Dict[str, Any]]]]:
        """Yield ``(point, outcome)`` as each point finishes, where
        ``outcome()`` returns the point's result or raises its error.

        With one worker (or one point) each point runs in-process when
        its outcome is called, so a point after the one that raised never
        starts.  Otherwise the points go to a process pool; closing the
        generator cancels every point the pool has not yet handed to a
        worker and waits for the rest.
        """
        if self.jobs == 1 or len(points) < 2:
            for point in points:
                yield point, partial(_execute_point, self._payload(point))
            return
        self._preresolve_backends(points)
        # Workers start warm (drivers imported, signature catalogue
        # built) so only the first point of a run, not
        # every worker's first point, pays Python start-up costs.
        with ProcessPoolExecutor(
            max_workers=min(self.jobs, len(points)), initializer=_warm_worker
        ) as pool:
            futures = {
                pool.submit(_execute_point, self._payload(point)): point
                for point in points
            }
            try:
                running = set(futures)
                while running:
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    # Successes first, so a failure in the same batch
                    # does not keep them out of the cache.
                    for future in sorted(
                        done, key=lambda ready: ready.exception() is not None
                    ):
                        yield futures[future], future.result
            finally:
                pool.shutdown(cancel_futures=True)

    @staticmethod
    def _preresolve_backends(points: Sequence[GridPoint]) -> None:
        """Resolve every backend the grid names, in the parent process.

        A degraded backend (``numpy`` without numpy installed) then
        warns exactly once — here — instead of once per pool worker;
        :func:`_warm_worker` silences the workers' copies.  Resolution
        is cached and stateless, so this does not change results.
        """
        from repro.core.backend import resolve_backend

        names = {
            value
            for point in points
            for name, value in point.knobs
            if name == "sig_backend" and isinstance(value, str)
        }
        for backend in sorted(names):
            resolve_backend(backend)

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _cache_lookup(self, point: GridPoint) -> Optional[Dict[str, Any]]:
        if not self._caches(point):
            return None
        key = self.cache.key_for(self._payload(point))
        entry = self.cache.get(key)
        if entry is not None and not self._holds_result(entry):
            # Parses but does not decode: a miss, like a garbage file.
            # The point is recomputed and its put rewrites the entry.
            self.cache.discard(key)
            return None
        return entry

    def _holds_result(self, entry: Any) -> bool:
        """Whether a cached entry decodes as :meth:`run` reads it."""
        try:
            if self.observability:
                if not {"metrics", "trace"} <= entry.keys():
                    return False
                entry = entry["comparison"]
            comparison_from_dict(entry)
        except (AttributeError, KeyError, TypeError, ValueError):
            return False
        return True

    def _cache_store(self, point: GridPoint, result: Dict[str, Any]) -> None:
        if not self._caches(point):
            return
        payload = self._payload(point)
        self.cache.put(self.cache.key_for(payload), payload, result)
