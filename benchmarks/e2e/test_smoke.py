"""Smoke test of the end-to-end benchmark, at ``--quick`` sizing.

Run explicitly (it is outside the tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

One traced quick run over all five workloads checks that every metric
``BENCHMARK.json`` names is printed with its unit, that the traced pass
reproduces the untraced passes' output digests (a traced result that
hashed differently would count as a failed operation), and that every
layer recorded calls.  The remaining tests check that bad input ends
with a clear error, not a traceback.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = HERE / "run.py"


def _run(*args: str, cwd: Path = ROOT, script: Path = RUN):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("summary")
    result = _run("--quick", "--trace", "1", "--out", str(out))
    assert result.returncode == 0, result.stderr
    summary = json.loads(next(out.glob("*.json")).read_text())
    return result, json.loads(result.stdout.splitlines()[-1]), summary


def test_traced_run_is_correct(traced):
    result, line, _ = traced
    assert line["correct"], result.stdout
    assert line["failed"] == 0
    assert line["attempted"] > 0


def test_every_metric_is_reported_with_its_unit(traced):
    result, line, summary = traced
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in benchmark["workloads"]):
        reported = summary["workloads"][workload]["metrics"]
        for kind in ("end_to_end", "per_layer"):
            for metric in benchmark[kind]:
                name = metric["name"]
                assert reported[name]["unit"] == metric["unit"]
                assert f"  {name} " in result.stdout
        for metric in benchmark["per_layer"]:
            key = f"{workload}.{metric['name']}"
            assert line["metrics"][key]["unit"] == metric["unit"]


def test_every_layer_records_calls(traced):
    _, _, summary = traced
    sys.path.insert(0, str(HERE))
    from spans import LAYERS

    for layer in LAYERS:
        assert any(
            entry["metrics"][f"{layer}.calls"]["value"] > 0
            for entry in summary["workloads"].values()
        ), layer


@pytest.mark.parametrize("args, message", [
    (("--workload", "no-such-workload"), "invalid choice"),
    (("--seed", "banana"), "seed must be a non-negative integer"),
    (("--seed", "-3"), "seed must be a non-negative integer"),
    (("--seconds", "0"), "seconds must be a positive integer"),
])
def test_bad_arguments_fail_cleanly(args, message):
    result = _run(*args)
    assert result.returncode == 2
    assert message in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _run("--quick", cwd=tmp_path,
                  script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert result.returncode != 0
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
