"""How the CLI reports bad input: one ``error:`` line and exit code 2."""

import pytest

from repro.cli import build_parser, main


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tm", "cb", "--scheme-policy", "bogus:x"], "unknown swap policy"),
        (["tm", "cb", "--bus", "timed:latency=-3"], "latency"),
        (["tm", "cb", "--trace-store", "{store}", "--trace-id", "abc"],
         "abc"),
    ],
    ids=["scheme-policy", "bus-latency", "trace-id"],
)
def test_typed_input_errors_exit_2_without_a_traceback(
    tmp_path, capsys, argv, message
):
    argv = [arg.format(store=tmp_path / "store") for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["checkpoint", "predictor", "--cache-dir", "{out}", "--trace-id", "x"],
        ["checkpoint", "predictor", "--cache-dir", "{out}",
         "--scheme-policy", "bogus:x"],
        ["reproduce", "--out", "{out}", "--bus", "timed:latency=-3"],
    ],
    ids=["checkpoint-lone-trace-id", "checkpoint-bad-policy",
         "reproduce-bad-bus"],
)
def test_rejected_grid_command_creates_no_directory(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([arg.format(out=out) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["serve", "submit", "jobs"])
def test_removed_service_commands_are_invalid_choices(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


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
        (["accuracy", "--permutations", "-2"],
         "argument --permutations: must be >= 0, got -2"),
        (["reproduce", "--out", "{out}", "--samples", "0"],
         "argument --samples: must be >= 1, got 0"),
        (["reproduce", "--out", "{out}", "--tm-txns", "0"],
         "argument --tm-txns: must be >= 1, got 0"),
        (["reproduce", "--out", "{out}", "--tls-tasks", "-1"],
         "argument --tls-tasks: must be >= 1, got -1"),
    ],
    ids=["tm-txns-0", "tm-txns-neg", "tls-tasks-0", "tls-tasks-neg",
         "accuracy-samples-0", "accuracy-txns-neg",
         "accuracy-permutations-neg", "reproduce-samples-0",
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


def test_zero_permutations_is_a_valid_sweep():
    args = build_parser().parse_args(["accuracy", "--permutations", "0"])
    assert args.permutations == 0
