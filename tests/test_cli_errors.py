"""How the CLI reports bad input: one ``error:`` line and exit code 2."""

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tm", "cb", "--bus", "timed:latency=-3"], "latency"),
        (["tm", "cb", "--bus", "timed:latency=1,latency=2"],
         "repeated bus option 'latency'"),
    ],
    ids=["bus-latency", "bus-repeated-option"],
)
def test_typed_input_errors_exit_2_without_a_traceback(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["checkpoint", "predictor", "--cache-dir", "{out}",
         "--bus", "timed:latency=-3"],
        ["reproduce", "--out", "{out}", "--bus", "timed:latency=-3"],
    ],
    ids=["checkpoint-bad-bus", "reproduce-bad-bus"],
)
def test_rejected_grid_command_creates_no_directory(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([arg.format(out=out) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_TINY_REPRODUCE = ["--tm-txns", "1", "--tls-tasks", "4", "--samples", "2",
                   "--jobs", "1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["reproduce", "--out", "{file}/x"], "--out"),
        (["reproduce", "--out", "{file}"], "--out"),
        (["reproduce", "--out", "{out}", "--cache-dir", "{file}"],
         "--cache-dir"),
        (["reproduce", "--out", "{out}", *_TINY_REPRODUCE,
          "--metrics-out", "{missing}/m.json"], "--metrics-out"),
        (["reproduce", "--out", "{out}", *_TINY_REPRODUCE,
          "--trace-out", "{missing}/t.jsonl"], "--trace-out"),
        (["reproduce", "--out", "{out}", *_TINY_REPRODUCE,
          "--trace-out", "{out}/sub/t.jsonl"], "--trace-out"),
        (["tm", "cb", "--txns", "1", "--metrics-out", "{missing}/m.json"],
         "--metrics-out"),
        (["tm", "cb", "--txns", "1", "--trace-out", "{missing}/t.jsonl"],
         "--trace-out"),
        (["tm", "cb", "--txns", "1", "--metrics-out", "{dir}"],
         "--metrics-out"),
        (["tls", "gzip", "--tasks", "2", "--metrics-out", "{missing}/m.json"],
         "--metrics-out"),
        (["tls", "gzip", "--tasks", "2", "--trace-out", "{file}/t.jsonl"],
         "--trace-out"),
        (["checkpoint", "predictor", "--epochs", "2", "--max-depth", "1",
          "--jobs", "1", "--metrics-out", "{missing}/m.json"],
         "--metrics-out"),
        (["checkpoint", "predictor", "--epochs", "2", "--max-depth", "1",
          "--jobs", "1", "--trace-out", "{missing}/t.jsonl"], "--trace-out"),
        (["checkpoint", "predictor", "--cache-dir", "{file}"], "--cache-dir"),
    ],
    ids=["reproduce-out-under-a-file", "reproduce-out-is-a-file",
         "reproduce-cache-dir-is-a-file", "reproduce-metrics-out",
         "reproduce-trace-out", "reproduce-trace-out-under-out",
         "tm-metrics-out", "tm-trace-out", "tm-metrics-out-is-a-directory",
         "tls-metrics-out", "tls-trace-out-under-a-file",
         "checkpoint-metrics-out", "checkpoint-trace-out",
         "checkpoint-cache-dir-is-a-file"],
)
def test_unwritable_output_path_exits_2_before_anything_runs(
    tmp_path, capfd, argv, flag
):
    """An output path that cannot be written is rejected, naming its
    flag, before any simulation runs or any output exists."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    (tmp_path / "dir").mkdir()
    argv = [
        arg.format(file=blocker, dir=tmp_path / "dir",
                   missing=tmp_path / "missing", out=tmp_path / "out")
        for arg in argv
    ]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    captured = capfd.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {flag} ")
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["serve", "submit", "jobs", "trace"])
def test_removed_service_commands_are_invalid_choices(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["tm", "cb"],
        ["tls", "gzip"],
        ["checkpoint", "predictor", "--cache-dir", "{out}"],
        ["reproduce", "--out", "{out}"],
    ],
    ids=["tm", "tls", "checkpoint", "reproduce"],
)
def test_removed_scheme_policy_flag_is_unrecognized(tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [arg.format(out=out) for arg in argv]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--scheme-policy", "static"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --scheme-policy static" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tm", "cb", "--txns", "0"], "argument --txns: must be >= 1, got 0"),
        (["tm", "cb", "--txns", "-2"], "argument --txns: must be >= 1, got -2"),
        (["tls", "gzip", "--tasks", "0"],
         "argument --tasks: must be >= 1, got 0"),
        (["tls", "gzip", "--tasks", "-1"],
         "argument --tasks: must be >= 1, got -1"),
        (["accuracy", "--samples", "0"],
         "argument --samples: must be >= 1, got 0"),
        (["accuracy", "--txns", "-1"], "argument --txns: must be >= 1, got -1"),
        (["reproduce", "--out", "{out}", "--samples", "0"],
         "argument --samples: must be >= 1, got 0"),
        (["reproduce", "--out", "{out}", "--tm-txns", "0"],
         "argument --tm-txns: must be >= 1, got 0"),
        (["reproduce", "--out", "{out}", "--tls-tasks", "-1"],
         "argument --tls-tasks: must be >= 1, got -1"),
    ],
    ids=["tm-txns-0", "tm-txns-neg", "tls-tasks-0", "tls-tasks-neg",
         "accuracy-samples-0", "accuracy-txns-neg", "reproduce-samples-0",
         "reproduce-tm-txns-0", "reproduce-tls-tasks-neg"],
)
def test_workload_size_flags_reject_out_of_range_values(
    tmp_path, capsys, argv, message
):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(out=out) for arg in argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()
