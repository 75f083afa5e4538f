"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are summaries written by ``run.py --out DIR``: a file,
or a directory whose ``*.json`` files are all read.  For every workload
and metric present on both sides it prints the median, quartiles and
sample count of each side, the change of B against A, and a verdict
against the metric's bound in ``BENCHMARK.json``:

``within``      the change is no larger than the bound;
``worse``       B is worse than A by more than the bound;
``better``      B is better than A by more than the bound;
``unresolved``  one side's spread (quartile distance over median) is
                wider than the bound, and not every B sample beats
                every A sample.

A side with several runs contributes one value per run (the run's
reported metric); a side with one run contributes that run's per-pass
samples.  Metrics without a bound (the per-layer ones) print a change
but no verdict.  Exits 1 if any bounded metric is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median (inf if unknowable)."""
    if len(values) < 2:
        return float("inf")
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def _sign(better: str) -> float:
    """+1 where a larger value is worse, -1 where it is better."""
    return 1.0 if better == "lower" else -1.0


def change(a: Sequence[float], b: Sequence[float], better: str) -> float:
    """Relative change of B's median against A's; > 0 means B is worse."""
    base = statistics.median(a)
    if not base:
        return 0.0
    return _sign(better) * (statistics.median(b) - base) / abs(base)


def verdict(
    a: Sequence[float], b: Sequence[float], bound: float, better: str
) -> str:
    sign = _sign(better)
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    moved = change(a, b, better)
    if moved > bound:
        return "worse"
    if moved < -bound:
        return "better"
    return "within"


def load_side(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no run summaries under {path}")
    summaries = []
    for file in files:
        try:
            summaries.append(json.loads(file.read_text(encoding="utf-8")))
        except (OSError, json.JSONDecodeError) as error:
            raise SystemExit(f"error: cannot read {file}: {error}")
    return summaries


def side_values(
    summaries: List[dict], workload: str, metric: str
) -> Optional[List[float]]:
    """One value per run, or the single run's per-pass samples."""
    found = [
        summary["workloads"][workload]["metrics"][metric]
        for summary in summaries
        if metric in summary["workloads"].get(workload, {}).get("metrics", {})
    ]
    if not found:
        return None
    if len(found) == 1:
        return list(found[0]["samples"])
    return [entry["value"] for entry in found]


def _describe(values: Sequence[float]) -> str:
    q1, q3 = quartiles(values)
    return (f"{statistics.median(values):11.5g} [{q1:.5g}, {q3:.5g}] "
            f"n={len(values)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of run.py summaries."
    )
    parser.add_argument("a", type=Path, help="baseline summary file or dir")
    parser.add_argument("b", type=Path, help="candidate summary file or dir")
    args = parser.parse_args(argv)
    definitions = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics: Dict[str, dict] = {
        metric["name"]: metric
        for kind in ("end_to_end", "per_layer")
        for metric in definitions[kind]
    }
    side_a, side_b = load_side(args.a), load_side(args.b)
    workloads = sorted({
        name for summary in side_a + side_b for name in summary["workloads"]
    })
    failing = 0
    print(f"{'workload':16s} {'metric':30s} {'A: median [q1, q3] n':>34s}  "
          f"{'B: median [q1, q3] n':>34s} {'change':>8s}  verdict")
    for workload in workloads:
        for name, metric in metrics.items():
            a = side_values(side_a, workload, name)
            b = side_values(side_b, workload, name)
            if a is None or b is None:
                continue
            outcome = "-"
            if "bound" in metric:
                outcome = verdict(a, b, metric["bound"], metric["better"])
                failing += outcome in ("worse", "unresolved")
            print(f"{workload:16s} {name:30s} {_describe(a):>34s}  "
                  f"{_describe(b):>34s} "
                  f"{change(a, b, metric['better']):+8.1%}  {outcome}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
