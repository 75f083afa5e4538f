"""The CLI's reproduce subcommand (small scale)."""

from repro.analysis.claims import CLAIMS
from repro.cli import main

EXPECTED_FILES = [
    "fig10.txt", "fig10.csv", "fig11.txt", "fig11.csv",
    "fig13.txt", "fig13.csv", "fig14.txt", "fig14.csv",
    "fig15.txt", "fig15.csv",
    "table6.txt", "table6.csv", "table7.txt", "table7.csv",
    "table8.txt", "table8.csv",
]


def test_reproduce_archives_every_experiment(tmp_path, capsys):
    out = tmp_path / "results"
    code = main([
        "reproduce", "--out", str(out),
        "--tm-txns", "3", "--tls-tasks", "16", "--samples", "30",
        "--seed", "5",
    ])
    # At this sizing sjbb2k's Lazy run is slightly slower than its Eager
    # run: the printed claims say so, and the exit status does not.
    assert code == 0
    printed = capsys.readouterr().out
    assert f"{len(CLAIMS) - 1} of {len(CLAIMS)} hold" in printed
    results = [
        line for line in printed.splitlines()
        if line.endswith(("holds", "FAILS"))
    ]
    assert len(results) == len(CLAIMS)
    failing = [line for line in results if line.endswith("FAILS")]
    assert len(failing) == 1 and "sjbb2k" in failing[0]
    # The claims are printed, not archived.
    assert sorted(p.name for p in out.iterdir() if p.is_file()) == sorted(
        EXPECTED_FILES
    )
    for name in EXPECTED_FILES:
        path = out / name
        assert path.is_file(), name
        assert path.stat().st_size > 0, name
    # CSVs parse and carry every application.
    import csv

    with open(out / "fig10.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["App", "Eager", "Lazy", "Bulk", "BulkNoOverlap"]
    assert len(rows) == 10  # header + nine applications


def test_reproduce_runs_parallel_and_reuses_cache(tmp_path, capsys):
    out = tmp_path / "results"
    argv = [
        "reproduce", "--out", str(out),
        "--tm-txns", "2", "--tls-tasks", "12", "--samples", "10",
        "--seed", "5", "--jobs", "2",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    # The sweep's grid points were cached under <out>/.cache; a re-run
    # serves every point from the cache.
    assert any((out / ".cache").glob("*.json"))
    assert main(argv) == 0
    assert "grid point(s) served from cache" in capsys.readouterr().out

    fig11_first = (out / "fig11.csv").read_text()
    assert main([*argv, "--no-cache"]) == 0
    assert (out / "fig11.csv").read_text() == fig11_first


def test_reproduce_with_observability_artifacts(tmp_path):
    out = tmp_path / "results"
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.json"
    code = main([
        "reproduce", "--out", str(out),
        "--tm-txns", "2", "--tls-tasks", "12", "--samples", "10",
        "--seed", "5", "--jobs", "2",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ])
    assert code == 0

    import json

    # One canonical trace-summary line per grid point, in key order.
    lines = trace.read_text(encoding="utf-8").splitlines()
    keys = [json.loads(line)["key"] for line in lines]
    assert keys == sorted(keys) and len(keys) == 16

    payload = json.loads(metrics.read_text(encoding="utf-8"))
    assert set(payload) == {"merged", "per_point"}
    assert payload["merged"]["counters"]["tm.commits"] > 0
    assert sorted(payload["per_point"]) == keys

    reconciliation = (out / "reconciliation.txt").read_text(encoding="utf-8")
    assert "MISMATCH" not in reconciliation
    assert "OK" in reconciliation


def test_reproduce_observability_leaves_results_unchanged(tmp_path):
    plain_out = tmp_path / "plain"
    obs_out = tmp_path / "obs"
    base = ["--tm-txns", "2", "--tls-tasks", "12", "--samples", "10",
            "--seed", "5", "--jobs", "2", "--no-cache"]
    assert main(["reproduce", "--out", str(plain_out)] + base) == 0
    assert main([
        "reproduce", "--out", str(obs_out),
        "--trace-out", str(tmp_path / "t.jsonl"),
        "--metrics-out", str(tmp_path / "m.json"),
    ] + base) == 0
    for name in EXPECTED_FILES:
        plain = (plain_out / name).read_bytes()
        traced = (obs_out / name).read_bytes()
        assert plain == traced, f"{name} diverged under tracing"
    reconciliation = (obs_out / "reconciliation.txt").read_text(
        encoding="utf-8"
    )
    assert "OK" in reconciliation and "MISMATCH" not in reconciliation
