"""The hot-path memos serve hits where they pay.

A refactor that silently bypasses a memo zeroes its hit counter long
before it shows up as a wall-time regression.  Memos are process-global
and earlier tests fill them, so the runs happen in a fresh interpreter.

The address-encode and decode memos pay in a TM comparison.  The RLE
memo pays where commits re-send a signature already encoded: in TLS, a
commit packet's write signature is often the spawn-time snapshot its
child's spawn flush encoded, and empty shadow signatures repeat.  cb's
TM commits are all distinct, so the RLE hits are counted over the TLS
comparison alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from repro.analysis.experiments import run_tls_comparison, run_tm_comparison
from repro.core.memo import memo_stats
run_tm_comparison("cb", txns_per_thread=2, seed=11, include_partial=True)
tm = memo_stats()
run_tls_comparison("gzip", num_tasks=20, seed=11)
print(json.dumps({"tm": tm, "tls": memo_stats("rle")}))
"""


def test_memos_hit_in_a_fresh_comparison():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    stats = json.loads(completed.stdout)
    tm = stats["tm"]
    for label in ("flat_mask", "decode"):
        assert tm[label]["hits"] > 0, (label, tm[label])
    rle_hits = stats["tls"]["rle"]["hits"] - tm["rle"]["hits"]
    assert rle_hits > 0, (stats["tls"]["rle"], tm["rle"])
