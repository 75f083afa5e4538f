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

Failures are retried per point; whatever still fails after the retry
budget lands in the runner's :attr:`~GridRunner.failure_log` instead of
poisoning the whole sweep.  With a cache directory configured
(:mod:`repro.runner.cache`), finished points are persisted and re-running
a sweep only recomputes points whose parameters or simulator code
changed.
"""

from __future__ import annotations

import json
import os
import pathlib
import traceback
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.runner.cache import ResultCache
from repro.runner.serialize import (
    canonical_json,
    comparison_from_dict,
    comparison_to_dict,
)
from repro.spec.config import LABEL_HIDDEN, RUN_OPTIONS, RunConfig

Knobs = Tuple[Tuple[str, Any], ...]


class GridExecutionError(SimulationError):
    """A grid point kept failing after exhausting its retry budget."""


@dataclass(frozen=True)
class GridPoint:
    """One cell of an experiment grid.

    ``knobs`` are the extra keyword arguments of the underlying
    comparison driver (``txns_per_thread``, ``num_tasks``,
    ``include_partial``, …), restricted to JSON-serialisable values so
    the point can be hashed into a stable cache key.
    """

    kind: str  # "tm", "tls", or "checkpoint"
    app: str
    seed: int = 42
    knobs: Knobs = ()

    def __post_init__(self) -> None:
        if self.kind not in ("tm", "tls", "checkpoint"):
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


#: Relative cost per workload unit of one grid point, by substrate kind.
#: TM runs every scheme over ``num_processors`` interleaved trace streams
#: (and Bulk-Partial on top), TLS runs four schemes over one task list,
#: and a checkpoint point is a single in-order processor — so at default
#: workload sizes tm > tls > checkpoint, which is what the submission
#: order must reflect.
_KIND_WEIGHT = {"tm": 40.0, "tls": 2.0, "checkpoint": 1.0}

#: The knob that scales each kind's work, with the driver's default.
_KIND_UNITS = {
    "tm": ("txns_per_thread", 12),
    "tls": ("num_tasks", 160),
    "checkpoint": ("num_epochs", 64),
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
    from repro.analysis.experiments import (
        run_checkpoint_comparison,
        run_tls_comparison,
        run_tm_comparison,
    )

    drivers = {
        "tm": run_tm_comparison,
        "tls": run_tls_comparison,
        "checkpoint": run_checkpoint_comparison,
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
    signature catalogue (each config builds its permutation and layout),
    the two paper-default configs, and the scheme registry.  Doing it
    once per *worker* instead of once per *point* removes that cost from
    every point after the first.  Warming touches only process-local
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
    from repro.spec import scheme_entries

    # The parent pre-resolves every backend the grid names and emits the
    # single user-facing degradation warning; each fresh worker would
    # otherwise repeat it (once per process x jobs workers).
    suppress_fallback_warnings()
    default_tm_config()
    default_tls_config()
    for substrate in ("tm", "tls", "checkpoint"):
        list(scheme_entries(substrate, include_variants=True))


@dataclass
class FailureRecord:
    """One failed execution attempt of one grid point."""

    key: str
    attempt: int
    error: str
    traceback: str


def _failure_from_dict(row: Any) -> Optional[FailureRecord]:
    """A persisted failure row as a record, or ``None`` if malformed."""
    if not isinstance(row, dict):
        return None
    try:
        return FailureRecord(
            key=str(row["key"]),
            attempt=int(row["attempt"]),
            error=str(row["error"]),
            traceback=str(row.get("traceback", "")),
        )
    except (KeyError, TypeError, ValueError):
        return None


def load_failure_records(
    directory: "str | os.PathLike[str]",
) -> List[FailureRecord]:
    """Every failure record persisted in a cache directory's
    append-only ``failures.jsonl`` (one JSON object per line).

    Malformed lines are *reported*, not silently dropped: each one is
    described (``file:line`` plus the reason) through
    :func:`warnings.warn` — a corrupted failure log hiding real failure
    history is itself a failure worth surfacing.  The one expected
    exception is a killed writer's torn tail: an unterminated final line
    is normal crash residue and stays silent.
    """
    path = pathlib.Path(directory) / "failures.jsonl"
    if not path.exists():
        return []
    records: List[FailureRecord] = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        warnings.warn(f"{path}: unreadable failure log ({error})", stacklevel=2)
        return records
    torn_tail = bool(text) and not text.endswith("\n")
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = json.loads(stripped)
        except json.JSONDecodeError as error:
            if not (torn_tail and number == len(lines)):
                warnings.warn(f"{path}:{number}: malformed failure record "
                              f"({error})", stacklevel=2)
            continue  # a killed writer's torn tail stays silent
        record = _failure_from_dict(row)
        if record is None:
            warnings.warn(f"{path}:{number}: not a failure record",
                          stacklevel=2)
        else:
            records.append(record)
    return records


@dataclass
class GridResult:
    """The deterministic merge of one grid execution."""

    #: Canonical point key -> canonical result dictionary, in key order.
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Keys that were served from the on-disk cache.
    cached_keys: List[str] = field(default_factory=list)
    #: Every failed attempt (including ones whose point later succeeded).
    failures: List[FailureRecord] = field(default_factory=list)
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
    retries:
        How many times one point is *re*-tried after a failure (so each
        point runs at most ``retries + 1`` times).
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
        retries: int = 1,
        cache_dir: "Optional[str | os.PathLike[str]]" = None,
        observability: bool = False,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = default_jobs() if jobs is None else jobs
        self.retries = retries
        self.cache: Optional[ResultCache] = (
            None if cache_dir is None else ResultCache(cache_dir)
        )
        self.observability = observability
        self.failure_log: List[FailureRecord] = []

    def _payload(self, point: GridPoint) -> Dict[str, Any]:
        """The point's execution/cache payload.  Only observability runs
        gain the extra ``"obs"`` member, so plain runs keep their cache
        keys (and cached results) from before instrumentation existed."""
        payload = point.payload()
        if self.observability:
            payload["obs"] = True
        return payload

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self, points: Iterable[GridPoint], allow_failures: bool = False
    ) -> GridResult:
        """Execute every point and return the deterministic merge.

        Raises :class:`GridExecutionError` if any point exhausts its
        retry budget, unless ``allow_failures`` is set — then failed
        points are simply absent from the results and recorded in the
        failure log.
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

        if pending:
            # Longest-processing-time-first: a trailing expensive TM
            # point must not execute alone after the cheap points drain.
            pending = submission_order(pending)
            if self.jobs > 1 and len(pending) > 1:
                executed = self._run_pool(pending, result.failures)
            else:
                executed = self._run_serial(pending, result.failures)
            for point in pending:
                if point.key in executed:
                    self._cache_store(point, executed[point.key])
                    computed[point.key] = executed[point.key]

        self.failure_log.extend(result.failures)
        self._persist_failures(result.failures)
        dead = [point.key for point in ordered if point.key not in computed]
        if dead and not allow_failures:
            raise GridExecutionError(
                f"{len(dead)} grid point(s) failed after "
                f"{self.retries + 1} attempt(s): {', '.join(dead)}"
            )
        for key in sorted(computed):
            entry = computed[key]
            if self.observability:
                result.results[key] = entry["comparison"]
                result.metrics[key] = entry["metrics"]
                result.traces[key] = entry["trace"]
            else:
                result.results[key] = entry
        return result

    def run_comparisons(self, points: Sequence[GridPoint]) -> Dict[str, Any]:
        """Run and reconstruct: point key -> comparison object."""
        return self.run(points).comparisons()

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------

    def _run_serial(
        self, points: Sequence[GridPoint], failures: List[FailureRecord]
    ) -> Dict[str, Dict[str, Any]]:
        executed: Dict[str, Dict[str, Any]] = {}
        for point in points:
            for attempt in range(1, self.retries + 2):
                try:
                    value = _execute_point(self._payload(point))
                except Exception as error:  # noqa: BLE001 - logged + re-raised
                    failures.append(
                        FailureRecord(
                            key=point.key,
                            attempt=attempt,
                            error=f"{type(error).__name__}: {error}",
                            traceback=traceback.format_exc(),
                        )
                    )
                else:
                    executed[point.key] = value
                    break
        return executed

    def _run_pool(
        self, points: Sequence[GridPoint], failures: List[FailureRecord]
    ) -> Dict[str, Dict[str, Any]]:
        executed: Dict[str, Dict[str, Any]] = {}
        workers = min(self.jobs, len(points))
        self._preresolve_backends(points)
        # Workers start warm (drivers imported, signature catalogue and
        # scheme registry built) so only the first point of a run, not
        # every worker's first point, pays Python start-up costs.
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_warm_worker
        ) as pool:
            attempts = {point.key: 1 for point in points}
            by_key = {point.key: point for point in points}
            futures = {
                pool.submit(_execute_point, self._payload(point)): point.key
                for point in points
            }
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    key = futures.pop(future)
                    error = future.exception()
                    if error is None:
                        executed[key] = future.result()
                        continue
                    attempt = attempts[key]
                    failures.append(
                        FailureRecord(
                            key=key,
                            attempt=attempt,
                            error=f"{type(error).__name__}: {error}",
                            traceback="".join(
                                traceback.format_exception(
                                    type(error), error, error.__traceback__
                                )
                            ),
                        )
                    )
                    if attempt <= self.retries:
                        attempts[key] = attempt + 1
                        retry = pool.submit(
                            _execute_point, self._payload(by_key[key])
                        )
                        futures[retry] = key
        return executed

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
        if self.cache is None:
            return None
        return self.cache.get(self.cache.key_for(self._payload(point)))

    def _cache_store(self, point: GridPoint, result: Dict[str, Any]) -> None:
        if self.cache is None:
            return
        payload = self._payload(point)
        self.cache.put(self.cache.key_for(payload), payload, result)

    def _persist_failures(self, failures: List[FailureRecord]) -> None:
        """Append this run's failures to the cache's ``failures.jsonl``.

        Append-only, so two runners sharing a cache directory never drop
        each other's records the way a read-modify-write of one JSON
        array would.  One buffered ``write`` of complete lines appends
        atomically at line granularity on POSIX, and the tolerant reader
        (:func:`load_failure_records`) skips a torn tail instead of
        losing the whole log.
        """
        if self.cache is None or not failures:
            return
        lines = "".join(
            json.dumps(
                {
                    "key": record.key,
                    "attempt": record.attempt,
                    "error": record.error,
                    "traceback": record.traceback,
                },
                sort_keys=True,
            )
            + "\n"
            for record in failures
        )
        path = self.cache.directory / "failures.jsonl"
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(lines)
