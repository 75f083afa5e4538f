"""How the CLI reports bad input: one ``error:`` line and exit code 2."""

import pytest

from repro.cli import main


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
