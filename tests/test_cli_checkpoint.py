"""The CLI's checkpoint subcommand."""

import json

import pytest

from repro.cli import main


def test_checkpoint_sweeps_rollback_depths(capsys):
    code = main([
        "checkpoint", "predictor", "--epochs", "16", "--max-depth", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "Checkpoint: predictor (16 epochs)" in out
    for column in ("Depth", "Scheme", "vsExact", "FalseInv"):
        assert column in out
    for scheme in ("Exact", "Bulk"):
        assert scheme in out
    assert "depth 1: commit bandwidth Bulk/Exact:" in out
    assert "depth 2: commit bandwidth Bulk/Exact:" in out


def test_checkpoint_unknown_app_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["checkpoint", "specjbb"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_checkpoint_depth_beyond_live_checkpoints(capsys):
    code = main([
        "checkpoint", "predictor", "--epochs", "8", "--max-depth", "9",
    ])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


def test_checkpoint_observability_artifacts(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    code = main([
        "checkpoint", "predictor", "--epochs", "16", "--max-depth", "2",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out and "MISMATCH" not in out

    lines = trace.read_text(encoding="utf-8").splitlines()
    keys = [json.loads(line)["key"] for line in lines]
    assert len(keys) == 2 and keys == sorted(keys)
    assert all(key.startswith("checkpoint:") for key in keys)

    payload = json.loads(metrics.read_text(encoding="utf-8"))
    assert payload["merged"]["counters"]["checkpoint.commits"] > 0
    assert payload["merged"]["counters"]["checkpoint.rollbacks"] > 0


@pytest.mark.parametrize("app", ["predictor", "hotset"])
def test_checkpoint_worker_count_does_not_change_artifacts(
    app, tmp_path, capsys, monkeypatch
):
    # Each run works in its own directory with the same relative paths,
    # so stdout (which echoes the output paths) stays comparable.
    outputs = {}
    for jobs in ("1", "2"):
        run_dir = tmp_path / f"jobs{jobs}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        code = main([
            "checkpoint", app, "--epochs", "16", "--max-depth", "2",
            "--jobs", jobs,
            "--trace-out", "trace.jsonl", "--metrics-out", "metrics.json",
        ])
        assert code == 0
        outputs[jobs] = (
            capsys.readouterr().out,
            (run_dir / "trace.jsonl").read_bytes(),
            (run_dir / "metrics.json").read_bytes(),
        )
    assert outputs["1"] == outputs["2"]
    stdout = outputs["1"][0]
    assert "OK" in stdout and "MISMATCH" not in stdout


def test_checkpoint_reuses_the_grid_cache(tmp_path, capsys):
    argv = [
        "checkpoint", "predictor", "--epochs", "12", "--max-depth", "1",
        "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "served from cache" not in first
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "grid point(s) served from cache" in second


def test_a_cache_entry_that_does_not_decode_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = [
        "checkpoint", "predictor", "--epochs", "4", "--max-depth", "1",
        "--jobs", "1", "--cache-dir", str(cache),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    (path,) = cache.glob("*.json")
    entry = json.loads(path.read_text())
    entry["result"] = {"kind": "checkpoint", "app": "predictor"}
    path.write_text(json.dumps(entry))
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert json.loads(path.read_text())["result"]["kind"] == "checkpoint"
    assert "rollback_depth" in json.loads(path.read_text())["result"]
