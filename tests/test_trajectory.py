"""``benchmarks/trajectory.py`` on small hand-written ``run.py`` summaries.

The script turns a set of end-to-end benchmark summaries into one point
of ``BENCH_core.json``: end-to-end medians over the runs, layer shares
and calls from the one traced seed-42 run.  Each refusal must exit 2
with one ``error:`` line and leave the file as it was.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "trajectory.py"
_spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

END_TO_END = ("wall_s", "accesses_per_s", "warm_wall_s", "setup_s",
              "peak_rss_mb")
WORKLOADS = ("tm-paper", "reproduce")


def summary(seed, trace, scale, *, quick=False, failed=0, problems=()):
    """A ``run.py --out`` summary whose metric values are ``scale`` times
    a fixed base; a traced one adds the layer metrics."""
    workloads = {}
    for index, name in enumerate(WORKLOADS):
        metrics = {
            metric: {"value": scale * (index + 1) * (k + 1),
                     "samples": [0.0], "unit": "s", "kind": "end_to_end"}
            for k, metric in enumerate(END_TO_END)
        }
        if trace:
            for layer in trajectory.LAYERS:
                metrics[f"{layer}.share"] = {"value": 0.05}
                metrics[f"{layer}.calls"] = {"value": 10 * (index + 1)}
            metrics["span_coverage"] = {"value": 0.9}
        workloads[name] = {"attempted": 4, "failed": failed,
                           "problems": list(problems), "metrics": metrics}
    return {"seed": seed, "trace": trace, "quick": quick,
            "workloads": workloads}


def write(directory, *summaries):
    paths = []
    for number, document in enumerate(summaries):
        path = directory / f"run{number}.json"
        path.write_text(json.dumps(document))
        paths.append(str(path))
    return paths


@pytest.fixture
def bench(tmp_path, monkeypatch):
    path = tmp_path / "BENCH_core.json"
    monkeypatch.setattr(trajectory, "BENCH", path)
    return path


@pytest.fixture
def good(tmp_path):
    runs = tmp_path / "good"
    runs.mkdir()
    return write(runs, summary(42, 1, 1.0), summary(3001, 0, 3.0),
                 summary(3002, 0, 2.0))


def test_the_point(bench, good):
    assert trajectory.main(["label one", *good]) == 0
    document = json.loads(bench.read_text())
    assert document["schema"] == 2
    (point,) = document["points"]
    assert point["label"] == "label one"
    assert re.fullmatch("[0-9a-f]{40}", point["commit"])
    assert point["seeds"] == [42, 3001, 3002]
    assert point["runs"] == 3
    assert {"machine", "cpus", "python"} <= set(point)
    assert sorted(point["workloads"]) == sorted(WORKLOADS)
    for index, name in enumerate(WORKLOADS):
        workload = point["workloads"][name]
        for k, metric in enumerate(END_TO_END):
            # The median of one value per run: 1, 3 and 2 times the base.
            assert workload[metric] == 2.0 * (index + 1) * (k + 1)
        assert list(workload["layers"]) == list(trajectory.LAYERS)
        assert all(layer == {"share": 0.05, "calls": 10 * (index + 1)}
                   for layer in workload["layers"].values())
        assert workload["span_coverage"] == 0.9


def test_points_append(bench, good):
    assert trajectory.main(["first", *good]) == 0
    assert trajectory.main(["second", *good]) == 0
    points = json.loads(bench.read_text())["points"]
    assert [point["label"] for point in points] == ["first", "second"]


def test_the_same_inputs_give_the_same_bytes(bench, good):
    assert trajectory.main(["same", *good]) == 0
    first = bench.read_bytes()
    bench.unlink()
    assert trajectory.main(["same", *reversed(good)]) == 0
    assert bench.read_bytes() == first


def test_a_directory_of_summaries_is_read_whole(bench, good, tmp_path):
    assert trajectory.main(["dir", str(tmp_path / "good")]) == 0
    assert json.loads(bench.read_text())["points"][0]["runs"] == 3


REFUSED = {
    "quick": [summary(42, 1, 1.0, quick=True), summary(1, 0, 1.0)],
    "failed-output": [summary(42, 1, 1.0), summary(1, 0, 1.0, failed=1)],
    "problem": [summary(42, 1, 1.0, problems=["traced pass timed out"])],
    "no-traced-seed-42": [summary(42, 0, 1.0), summary(7, 1, 1.0)],
    "two-traced-seed-42": [summary(42, 1, 1.0), summary(42, 1, 2.0)],
}


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refusals_exit_2_and_leave_the_file(
    bench, tmp_path, capsys, case, existing
):
    if existing:
        bench.write_text('{"schema": 2, "points": []}\n')
    before = bench.read_bytes() if existing else None
    runs = tmp_path / "runs"
    runs.mkdir()
    assert trajectory.main(["refused", *write(runs, *REFUSED[case])]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert (bench.read_bytes() if bench.exists() else None) == before
