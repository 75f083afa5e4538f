"""One pass of one workload, in a fresh interpreter.

``run.py`` launches this script once per pass, so every pass starts with
cold process-local memos, as a user's ``repro`` run does.  A pass:

1. imports what the workload calls and resolves its signature backend
   (set-up: launch to here, timed from the parent's launch stamp);
2. runs the workload's operations once (``cold``), then again in the
   same interpreter (``warm``, memos filled; for ``reproduce``, the same
   output and result-cache directory);
3. after the timed region, digests every result, runs the checks, and
   writes one JSON document to ``--out``.

Every time is reported twice: as measured (``*_raw_s``) and rescaled to
a fixed machine speed (``*_s``).  The speed of a shared VM swings by
tens of percent within a second, for every process at once.  So a fixed
slice of interpreter work is timed before the first operation, after
each operation, and where one of the workload's ``marks`` functions
returns inside a long operation.  Each segment between two slices is
rescaled by ``REFERENCE_SLICE_S`` over the mean of the slices at its
ends: the seconds its work would take at the reference speed.  The
rescaling removes most of the machine's drift and none of the program's
own cost, which the slice does not contain; slice time is not counted.

With ``--trace`` the layer wrappers of ``spans.py`` are installed before
the timed region (and the marks are not) and the document carries the
per-layer aggregates.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

#: Iterations of the calibration slice: integer arithmetic and dict
#: stores, the simulators' staple work.
SLICE_ITERATIONS = 20000
#: The slice's median duration on the reference machine (a 2-vCPU
#: Firecracker VM, otherwise idle).  Rescaled times read as seconds on
#: that machine at that speed.
REFERENCE_SLICE_S = 0.0021


def _slice() -> float:
    """Seconds the calibration slice takes now (median of three)."""
    durations = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        table = {}
        for i in range(SLICE_ITERATIONS):
            total += i * i % 7
            table[i & 1023] = total
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


class Timeline:
    """One phase's host seconds, cut into segments by calibration slices.

    :meth:`mark` ends the current segment, times a slice, and starts the
    next segment after it.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.rescaled_s = 0.0
        self._before = _slice()
        self._start = time.perf_counter()

    def mark(self) -> None:
        elapsed = time.perf_counter() - self._start
        after = _slice()
        self.raw_s += elapsed
        self.rescaled_s += (
            elapsed * REFERENCE_SLICE_S * 2 / (self._before + after)
        )
        self._before = after
        self._start = time.perf_counter()


class Marks:
    """Marks the running phase's timeline whenever one of a workload's
    ``marks`` functions returns in this process (pool workers forked
    from it do not mark)."""

    def __init__(self) -> None:
        self.timeline: Optional[Timeline] = None

    def install(self, targets) -> None:
        if not targets:
            return
        os.register_at_fork(after_in_child=self._forked)
        for module_name, owner, name in targets:
            holder = importlib.import_module(module_name)
            if owner is not None:
                holder = getattr(holder, owner)
            setattr(holder, name, self._marked(getattr(holder, name)))

    def _forked(self) -> None:
        self.timeline = None

    def _marked(self, function):
        marks = self

        def marked(*args, **kwargs):
            try:
                return function(*args, **kwargs)
            finally:
                if marks.timeline is not None:
                    marks.timeline.mark()

        return marked


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _phase(
    workload, observer, marks: Marks, phase: str, seed: int, size,
    workdir: Path,
) -> Tuple[Timeline, Dict[str, Any]]:
    """Run every operation once; returns the phase's timeline and the
    results, where a failed operation's result is the exception."""
    operations = workload.operations(seed, size, workdir)
    results: Dict[str, Any] = {}
    timeline = marks.timeline = Timeline()
    for label, operation in operations:
        observer.tag = (phase, label)
        try:
            results[label] = operation()
        except Exception as error:  # noqa: BLE001 - reported per operation
            results[label] = error
        timeline.mark()
        failure = results[label]
        if isinstance(failure, Exception):
            traceback.print_exception(
                type(failure), failure, failure.__traceback__,
                file=sys.stderr,
            )
    marks.timeline = None
    return timeline, results


def _report(workload, observer, phase: str, results, warm: bool):
    """Per operation: its error, or its output digests."""
    report = {}
    for label, result in results.items():
        if isinstance(result, Exception):
            report[label] = {
                "error": f"{type(result).__name__}: {result}", "digests": {}
            }
            continue
        problems = list(workload.problems(label, result, warm))
        memory = observer.tls_memory_problems(phase, label)
        if memory:
            problems.append(memory)
        report[label] = {
            "error": "; ".join(problems) or None,
            "digests": {
                name: _digest(data)
                for name, data in workload.outputs(label, result).items()
            },
        }
    return report


def _counters(observer, workload, warm_results, workdir: Path):
    """Speculation and bus counters of the cold run, process-wide memo
    and codec counters, and the warm run's result-cache hits."""
    from repro.core.backend.codec import codec_stats
    from repro.core.memo import memo_stats

    stats = observer.stats("cold")
    if workload.name == "reproduce":
        # Grid points ran in pool workers; their stats are in the cache.
        from repro.runner.serialize import comparison_from_dict

        for path in sorted((workdir / "reproduce" / ".cache").glob("*.json")):
            entry = json.loads(path.read_text(encoding="utf-8"))
            stats.extend(comparison_from_dict(entry["result"]).stats.values())
    commits = sum(s.commits for s in stats)
    squashes = sum(s.squashes for s in stats)
    false_squashes = sum(s.false_positive_squashes for s in stats)
    memo = memo_stats()
    codec = codec_stats()
    computes = sum(codec.values())
    hits = sum(
        workloads.reproduce_cache_hits(result)
        for result in warm_results.values()
        if isinstance(result, workloads.ReproduceResult)
    )
    return {
        "spec.commits": commits,
        "spec.squashes": squashes,
        "spec.useful_frac": commits / (commits + squashes)
        if commits + squashes else 0.0,
        "spec.false_squash_frac": false_squashes / squashes
        if squashes else 0.0,
        "bus.bytes": sum(s.bandwidth.total_bytes for s in stats),
        "bus.wait_cycles": sum(s.bus_wait_cycles for s in stats),
        "core.codec.vectorised_frac": (computes - codec["fallback"]) / computes
        if computes else 0.0,
        **{
            f"core.memo.{name}.hit_rate": _hit_rate(memo.get(name))
            for name in ("flat_mask", "decode", "rle")
        },
        "runner.cache_hits": hits,
    }


def _hit_rate(aggregate) -> float:
    if not aggregate:
        return 0.0
    lookups = aggregate["hits"] + aggregate["misses"]
    return aggregate["hits"] / lookups if lookups else 0.0


def _peak_rss_mb() -> float:
    """Largest RSS of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True,
                        help="time.monotonic() when the parent launched us")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--count", action="store_true",
                        help="also count the cold run's input accesses")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    size = workload.quick if args.quick else workload.full
    for module in workload.modules:
        importlib.import_module(module)
    from repro.core.backend import resolve_backend

    resolve_backend(workload.backend)
    setup_raw_s = time.monotonic() - args.launch
    setup_s = setup_raw_s * REFERENCE_SLICE_S / _slice()

    observer = workloads.RunObserver()
    observer.install()
    marks = Marks()
    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        recorder.install()
    else:
        marks.install(workload.marks)
    args.workdir.mkdir(parents=True, exist_ok=True)
    cold_time, cold = _phase(
        workload, observer, marks, "cold", args.seed, size, args.workdir
    )
    warm_time, warm = _phase(
        workload, observer, marks, "warm", args.seed, size, args.workdir
    )
    if recorder is not None:
        recorder.stop()

    document: Dict[str, Any] = {
        "workload": workload.name,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "cold_s": cold_time.rescaled_s,
        "cold_raw_s": cold_time.raw_s,
        "warm_s": warm_time.rescaled_s,
        "warm_raw_s": warm_time.raw_s,
        "peak_rss_mb": _peak_rss_mb(),
        "ops": {
            "cold": _report(workload, observer, "cold", cold, warm=False),
            "warm": _report(workload, observer, "warm", warm, warm=True),
        },
    }
    if args.count:
        document["accesses"] = workload.accesses(args.seed, size)
    if recorder is not None:
        traced_s = cold_time.raw_s + warm_time.raw_s
        document["trace"] = {
            "traced_s": traced_s,
            "coverage": recorder.top_level_seconds() / traced_s,
            "wait_s": recorder.total_seconds(spans.WAIT_SPAN),
            "layers": recorder.layer_totals(),
            "counters": _counters(observer, workload, warm, args.workdir),
            "spans": recorder.to_json(),
        }
    args.out.write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
