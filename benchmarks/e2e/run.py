"""End-to-end benchmark of the reproduction.

Usage::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR] [--quick]

Runs each named workload (default: all five) for ``--seconds`` seconds
of passes, at least three (``--quick``: small inputs, one pass).  Every
pass is a fresh interpreter (``passes.py``) that runs
the workload cold, then warm; passes of several workloads interleave
round by round.  It prints every metric by name with its unit,
checks every output, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the untraced passes are followed
by one traced pass per workload and the metrics are the per-layer ones.
With more than one workload, metric names are prefixed ``<workload>.``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from compare import quartiles
from spans import LAYERS
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
PINNED_SEED = 42

#: Fewest timed passes per workload, however short ``--seconds`` is.
MIN_PASSES = 3
#: A traced pass costs up to this many untraced passes.
TRACE_COST = 2.2
#: Every pass of a workload ends within this many seconds of the
#: workload's first pass, so one invocation stays under three minutes.
WORKLOAD_DEADLINE_S = 165.0
#: A traced pass must place at least this share of its wall time inside
#: named layer spans.
MIN_COVERAGE = 0.95


class BenchmarkError(Exception):
    """The benchmark cannot run here (exit status 2, no result line)."""


@dataclass
class WorkloadRun:
    """Everything one workload's passes produced in this invocation."""

    workload: Workload
    reference: Dict[str, Dict[str, str]]
    pinned: bool
    passes: List[Dict[str, Any]] = field(default_factory=list)
    traced: Optional[Dict[str, Any]] = None
    pass_seconds: List[float] = field(default_factory=list)
    started: Optional[float] = None
    accesses: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(self.pass_seconds)

    def wants_pass(self, seconds: float, reserve: float, least: int) -> bool:
        """Whether another untraced pass is due: the first ``least``,
        then as many as fit in ``seconds`` while keeping ``reserve``
        pass-lengths free for a traced pass."""
        if not self.pass_seconds:
            return True
        estimate = statistics.median(self.pass_seconds)
        if time.monotonic() - self.started + estimate > WORKLOAD_DEADLINE_S:
            return False
        if len(self.pass_seconds) < least:
            return True
        return self.elapsed + estimate * (1 + reserve) <= seconds

    def score(self, document: Dict[str, Any], what: str) -> None:
        """Count one pass's operations and compare its digests with the
        reference (the pinned digests, else this run's first pass)."""
        for phase, operations in document["ops"].items():
            for label, op in operations.items():
                expected = self.reference.get(label)
                if op["error"]:
                    count = max(1, len(expected or {}))
                    self.attempted += count
                    self.failed += count
                    self.problems.append(f"{what} {phase} {label}: {op['error']}")
                    continue
                if expected is None:
                    expected = self.reference[label] = op["digests"]
                names = set(expected) | set(op["digests"])
                wrong = sorted(
                    name for name in names
                    if expected.get(name) != op["digests"].get(name)
                )
                self.attempted += len(names)
                self.failed += len(wrong)
                if wrong:
                    source = "pinned" if self.pinned else "first pass"
                    self.problems.append(
                        f"{what} {phase} {label}: output differs from the "
                        f"{source} digest: {', '.join(wrong)}"
                    )

    def fail_pass(self, what: str, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{what}: {reason}")


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------

def _run_pass(
    run: WorkloadRun, args, workdir: Path, *, trace: bool = False
) -> Optional[Dict[str, Any]]:
    """Launch one pass and wait for it; ``None`` if it failed."""
    index = len(run.pass_seconds)
    what = f"{'traced ' if trace else ''}pass {index + 1}"
    out = workdir / f"{run.workload.name}-{index}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    if run.started is None:
        run.started = time.monotonic()
    timeout = max(1.0, WORKLOAD_DEADLINE_S - (time.monotonic() - run.started))
    command = [
        sys.executable, str(HERE / "passes.py"),
        "--workload", run.workload.name,
        "--seed", str(args.seed),
        "--workdir", str(workdir / f"{run.workload.name}-{index}"),
        "--out", str(out),
    ]
    command += ["--quick"] * args.quick + ["--trace"] * trace
    command += ["--count"] * (index == 0)
    launch = time.monotonic()
    process = subprocess.Popen(
        command + ["--launch", repr(launch)],
        env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # Stop the pass and anything it left running (pool workers).
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    run.pass_seconds.append(time.monotonic() - launch)
    shutil.rmtree(workdir / f"{run.workload.name}-{index}", ignore_errors=True)
    if code is None:
        run.fail_pass(what, f"timed out after {timeout:.0f} s")
        return None
    if code != 0 or not out.exists():
        run.fail_pass(what, f"exited with status {code}")
        return None
    document = json.loads(out.read_text(encoding="utf-8"))
    run.score(document, what)
    if "accesses" in document:
        run.accesses = document["accesses"]
    return document


def _execute(runs: List[WorkloadRun], args, workdir: Path) -> None:
    """Interleave untraced passes round by round, then trace.  A quick
    run makes one untraced pass per workload."""
    reserve = TRACE_COST if args.trace else 0.0
    least, seconds = (1, 0) if args.quick else (MIN_PASSES, args.seconds)
    while True:
        due = [run for run in runs
               if run.wants_pass(seconds, reserve, least)]
        if not due:
            break
        for run in due:
            document = _run_pass(run, args, workdir)
            if document is not None:
                run.passes.append(document)
    if args.trace:
        for run in runs:
            run.traced = _run_pass(run, args, workdir, trace=True)
            if run.traced is not None:
                _check_trace(run)
        silent = [
            layer for layer in LAYERS
            if all(run.traced is None
                   or not run.traced["trace"]["layers"][layer]["calls"]
                   for run in runs)
        ]
        if len(runs) == len(WORKLOADS) and silent:
            runs[0].problems.append(
                f"layers with no traced calls on any workload: "
                f"{', '.join(silent)}"
            )


def _check_trace(run: WorkloadRun) -> None:
    trace = run.traced["trace"]
    silent = [
        layer for layer in run.workload.layers
        if not trace["layers"][layer]["calls"]
    ]
    if silent:
        run.problems.append(
            f"traced pass recorded no calls in {', '.join(silent)}"
        )
    if trace["coverage"] < MIN_COVERAGE:
        run.problems.append(
            f"only {trace['coverage']:.1%} of the traced pass fell inside "
            f"layer spans"
        )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _raw_samples(run: WorkloadRun) -> Dict[str, List[float]]:
    """Per-pass host seconds as measured, before speed rescaling."""
    return {
        "wall_s": [p["cold_raw_s"] for p in run.passes],
        "warm_wall_s": [p["warm_raw_s"] for p in run.passes],
        "setup_s": [p["setup_raw_s"] for p in run.passes],
    }


def _samples(run: WorkloadRun) -> Dict[str, List[float]]:
    """Per-pass samples of every end-to-end metric."""
    passes = run.passes
    cold = [p["cold_s"] for p in passes]
    return {
        "wall_s": cold,
        "accesses_per_s": [run.accesses / seconds for seconds in cold],
        "warm_wall_s": [p["warm_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }


def _layer_metrics(run: WorkloadRun) -> Dict[str, float]:
    trace = run.traced["trace"]
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        totals = trace["layers"][layer]
        metrics[f"{layer}.self_s"] = totals["self_s"]
        metrics[f"{layer}.share"] = totals["self_s"] / trace["traced_s"]
        metrics[f"{layer}.calls"] = totals["calls"]
    metrics.update(trace["counters"])
    metrics["runner.wait_s"] = trace["wait_s"]
    metrics["span_coverage"] = trace["coverage"]
    metrics["trace_overhead"] = run.traced["cold_s"] / statistics.median(
        p["cold_s"] for p in run.passes
    )
    return metrics


def _metric_table(
    runs: List[WorkloadRun], definitions: Dict[str, Dict]
) -> Dict[str, Dict[str, Any]]:
    """``{workload: {metric: {"value", "unit", "samples"}}}``: the
    end-to-end metrics, plus the per-layer ones after a traced pass, in
    ``BENCHMARK.json`` order."""
    table: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        if not run.passes:
            continue
        values = {
            name: {"value": statistics.median(samples), "samples": samples}
            for name, samples in _samples(run).items()
        }
        if run.traced is not None:
            values.update(
                (name, {"value": value, "samples": [value]})
                for name, value in _layer_metrics(run).items()
            )
        missing = sorted(
            name for name, metric in definitions.items()
            if name not in values
            and (metric["kind"] == "end_to_end" or run.traced is not None)
        )
        if missing:
            raise BenchmarkError(
                f"BENCHMARK.json names metrics this benchmark does not "
                f"measure: {', '.join(missing)}"
            )
        table[run.workload.name] = {
            name: {**values[name], "unit": metric["unit"],
                   "kind": metric["kind"]}
            for name, metric in definitions.items()
            if name in values
        }
    return table


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def _print_report(runs, table, args) -> None:
    for run in runs:
        print(f"{run.workload.name}: seed {args.seed}, "
              f"{len(run.passes)} timed pass(es), "
              f"{'1 traced pass, ' if run.traced else ''}"
              f"{run.attempted} operation(s), {run.failed} failed")
        for name, metric in table.get(run.workload.name, {}).items():
            line = f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}"
            if len(metric["samples"]) > 1:
                q1, q3 = quartiles(metric["samples"])
                line += (f"  (median of {len(metric['samples'])}; "
                         f"quartiles {q1:.6g} .. {q3:.6g})")
            print(line)
        if run.passes:
            raw = ", ".join(
                f"{name} {statistics.median(samples):.6g}"
                for name, samples in _raw_samples(run).items()
            )
            print(f"  host seconds before rescaling (medians): {raw}")
        for problem in run.problems:
            print(f"  FAILED: {problem}")


def _write_out(directory: Path, runs, table, args) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    names = [run.workload.name for run in runs]
    stem = "all" if len(names) == len(WORKLOADS) else "+".join(names)
    path = directory / f"{stem}-seed{args.seed}-trace{args.trace}.json"
    summary = {
        "seed": args.seed,
        "trace": args.trace,
        "quick": args.quick,
        "workloads": {
            run.workload.name: {
                "attempted": run.attempted,
                "failed": run.failed,
                "problems": run.problems,
                "pass_seconds": run.pass_seconds,
                "metrics": table.get(run.workload.name, {}),
                "raw_samples": _raw_samples(run),
                "spans": run.traced["trace"]["spans"] if run.traced else None,
            }
            for run in runs
        },
    }
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return path


def _pin(runs: List[WorkloadRun]) -> None:
    pins = json.loads(DIGESTS.read_text(encoding="utf-8")) if (
        DIGESTS.exists()) else {"seed": PINNED_SEED, "workloads": {}}
    for run in runs:
        pins["workloads"][run.workload.name] = run.reference
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, not {text!r}"
        )
    return value


def _seconds(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"seconds must be a positive integer, not {text!r}"
        )
    return value


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the reproduction.",
    )
    parser.add_argument("--workload", action="append", metavar="NAME",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all of "
                        f"{', '.join(WORKLOADS)})")
    parser.add_argument("--seed", type=_seed, default=PINNED_SEED,
                        help="input seed (default: %(default)s)")
    parser.add_argument("--seconds", type=_seconds, default=None,
                        help="seconds of passes per workload, the "
                        "run_seconds of BENCHMARK.json that the "
                        "benchmark's caller passes (default: that value)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: add a traced pass and report per-layer "
                        "metrics")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="also write a JSON summary into DIR "
                        "(compare two with compare.py)")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs and one pass per workload "
                        "(smoke test); digests not pinned")
    parser.add_argument("--pin", action="store_true",
                        help=f"record this run's output digests as the "
                        f"seed-{PINNED_SEED} pins in digests.json")
    args = parser.parse_args(argv)
    if args.pin and (args.seed != PINNED_SEED or args.quick):
        parser.error(f"--pin needs --seed {PINNED_SEED} and full sizing")
    return args


def _load_definitions() -> Dict[str, Any]:
    if not (SRC / "repro").is_dir():
        raise BenchmarkError(
            f"no program to benchmark: {SRC / 'repro'} is missing "
            "(run from a checkout of the repository)"
        )
    try:
        return json.loads(BENCHMARK.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise BenchmarkError(f"cannot read {BENCHMARK}: {error}") from error


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        benchmark = _load_definitions()
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = benchmark["run_seconds"]
    definitions = {
        metric["name"]: {**metric, "kind": kind}
        for kind in ("end_to_end", "per_layer")
        for metric in benchmark[kind]
    }
    pins = {}
    if args.seed == PINNED_SEED and not args.quick and not args.pin and (
        DIGESTS.exists()
    ):
        pins = json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"]
    names = args.workload or list(WORKLOADS)
    runs = [
        WorkloadRun(
            WORKLOADS[name],
            reference={k: dict(v) for k, v in pins.get(name, {}).items()},
            pinned=name in pins,
        )
        for name in dict.fromkeys(names)
    ]

    scratch = ROOT / ".bench_e2e"
    workdir = scratch / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _execute(runs, args, workdir)
        table = _metric_table(runs, definitions)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    _print_report(runs, table, args)
    if args.out is not None:
        print(f"wrote {_write_out(args.out, runs, table, args)}")
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    correct = (
        attempted > 0 and failed == 0
        and not any(run.problems for run in runs)
        and all(run.workload.name in table for run in runs)
    )
    if args.pin and correct:
        _pin(runs)
        print(f"pinned seed-{PINNED_SEED} digests in {DIGESTS}")
    kind = "per_layer" if args.trace else "end_to_end"
    prefix = len(runs) > 1
    metrics = {
        (f"{workload}.{name}" if prefix else name): {
            "value": metric["value"], "unit": metric["unit"],
        }
        for workload, values in table.items()
        for name, metric in values.items()
        if metric["kind"] == kind
    }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
