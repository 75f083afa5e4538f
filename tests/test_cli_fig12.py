"""The CLI's fig12 subcommand runs from any working directory."""

from repro.cli import main


def test_fig12_command(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fig12"]) == 0
    out = capsys.readouterr().out
    assert "livelock detected" in out
    assert "12b-lazy" in out
