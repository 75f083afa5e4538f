"""The hot-path memos serve hits in a timed-bus TM comparison.

A refactor that silently bypasses a memo zeroes its hit counter long
before it shows up as a wall-time regression.  Memos are process-global
and earlier tests fill them, so the comparison runs in a fresh
interpreter.  ``include_partial`` matters for the RLE memo: Bulk-Partial
re-commits signatures Bulk already encoded; without it the RLE memo
records no hit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from repro.analysis.experiments import run_tm_comparison
from repro.core.memo import memo_stats
run_tm_comparison("cb", txns_per_thread=2, seed=11, include_partial=True,
                  bus="timed:latency=4,policy=round-robin")
print(json.dumps(memo_stats()))
"""


def test_memos_hit_in_a_fresh_timed_bus_comparison():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    stats = json.loads(completed.stdout)
    for label in ("flat_mask", "decode", "rle"):
        assert stats[label]["hits"] > 0, (label, stats[label])
