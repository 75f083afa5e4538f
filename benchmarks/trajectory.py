"""Append one point to the performance trajectory in ``BENCH_core.json``.

Usage: ``python3 benchmarks/trajectory.py LABEL SUMMARY...``, where each
``SUMMARY`` is a ``benchmarks/e2e/run.py --out`` file or directory and
exactly one is a ``--trace 1`` run at seed 42.  The point holds the
label, the commit (``git rev-parse HEAD``), the machine, the Python
version, the seeds, the run count and, per workload, the median of each
end-to-end metric (one value per run), the traced ``span_coverage`` and
every layer's traced ``share`` and ``calls``.  Anything else, or a
``--quick`` summary, or a failed output or problem, is refused: exit 2,
one ``error:`` line, the file untouched.  Same inputs, same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from compare import BENCHMARK, load_side, side_values  # noqa: E402
from spans import LAYERS  # noqa: E402

BENCH = ROOT / "BENCH_core.json"
TRACED_SEED = 42


class Refusal(Exception):
    """The summaries cannot make a point (exit status 2)."""


def load_summaries(paths: List[str]) -> List[dict]:
    summaries = []
    for path in paths:
        try:
            summaries += load_side(Path(path))
        except SystemExit as error:  # how load_side reports bad input
            raise Refusal(str(error.code).replace("error: ", "", 1))
    for summary in summaries:
        run = f"the seed-{summary['seed']} trace-{summary['trace']} summary"
        if summary["quick"]:
            raise Refusal(f"{run} is a --quick run")
        for name, workload in sorted(summary["workloads"].items()):
            if workload["failed"] or workload["problems"]:
                raise Refusal(f"{run} has a failed output or problem in {name}")
    if len({tuple(sorted(s["workloads"])) for s in summaries}) != 1:
        raise Refusal("the summaries do not name the same workloads")
    return summaries


def build_point(label: str, summaries: List[dict]) -> dict:
    traced = [s for s in summaries if s["trace"] and s["seed"] == TRACED_SEED]
    if len(traced) != 1:
        raise Refusal(f"{len(traced)} traced seed-{TRACED_SEED} summaries; "
                      f"a point needs exactly one")
    definitions = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    workloads = {}
    for name, run in sorted(traced[0]["workloads"].items()):
        traced_value = {metric: entry["value"]
                        for metric, entry in run["metrics"].items()}
        workloads[name] = {
            **{metric["name"]: statistics.median(
                side_values(summaries, name, metric["name"]))
               for metric in definitions["end_to_end"]},
            "span_coverage": traced_value["span_coverage"],
            "layers": {layer: {"share": traced_value[f"{layer}.share"],
                               "calls": traced_value[f"{layer}.calls"]}
                       for layer in LAYERS},
        }
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    if commit.returncode:
        raise Refusal(f"cannot read the commit: {commit.stderr.strip()}")
    return {
        "label": label, "commit": commit.stdout.strip(),
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "seeds": sorted({summary["seed"] for summary in summaries}),
        "runs": len(summaries), "workloads": workloads,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the measured change")
    parser.add_argument("summaries", nargs="+", metavar="SUMMARY")
    args = parser.parse_args(argv)
    try:
        trajectory = {"schema": 2, "points": []}
        if BENCH.exists():
            trajectory = json.loads(BENCH.read_text(encoding="utf-8"))
            if trajectory.get("schema") != 2:
                raise Refusal(f"{BENCH.name} is not a schema-2 trajectory")
        point = build_point(args.label, load_summaries(args.summaries))
    except Refusal as refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    trajectory["points"].append(point)
    BENCH.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    print(f"appended point {args.label!r} to {BENCH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
