"""CLI wiring of the ``--bus`` flag."""

import pytest

from repro.cli import _run_config, build_parser, main
from repro.errors import ConfigurationError


@pytest.mark.parametrize(
    "argv, knob",
    [
        (["tm", "mc"], None),
        (["tm", "mc", "--bus", "legacy"], None),
        (["tm", "mc", "--bus", "timed"],
         "timed:latency=0,policy=fifo,window=0"),
        (["tls", "gzip", "--bus", "timed:latency=4"],
         "timed:latency=4,policy=fifo,window=0"),
        (["checkpoint", "predictor", "--bus", "timed:policy=round-robin"],
         "timed:latency=0,policy=round-robin,window=0"),
        (["reproduce", "--bus", "timed:window=8,latency=2"],
         "timed:latency=2,policy=fifo,window=8"),
    ],
    ids=["default", "explicit-legacy", "timed", "tls", "checkpoint",
         "reproduce"],
)
def test_bus_flag_sets_the_canonical_knob(argv, knob):
    """The default bus leaves no knob (cache keys stay pre-interconnect);
    any other spec becomes its canonical form."""
    config = _run_config(build_parser().parse_args(argv))
    assert config.knobs().get("bus") == knob


@pytest.mark.parametrize(
    "spec, message",
    [
        ("warp", "unknown bus model"),
        ("timed:policy=chaos", "unknown arbitration policy"),
        ("legacy:latency=1", "takes no options"),
    ],
    ids=["unknown-model", "unknown-policy", "legacy-options"],
)
def test_bad_bus_spec_is_a_configuration_error(spec, message):
    args = build_parser().parse_args(["tm", "mc", "--bus", spec])
    with pytest.raises(ConfigurationError, match=message):
        _run_config(args)


class TestContentionOutput:
    def test_legacy_run_prints_no_contention_table(self, capsys):
        assert main(["tm", "mc", "--txns", "3", "--seed", "1"]) == 0
        assert "Interconnect contention" not in capsys.readouterr().out

    def test_timed_tm_run_prints_contention_table(self, capsys):
        assert main([
            "tm", "mc", "--txns", "3", "--seed", "1",
            "--bus", "timed:latency=4",
        ]) == 0
        out = capsys.readouterr().out
        assert "Interconnect contention (timed:latency=4" in out
        assert "WaitCyc" in out and "Util%" in out

    def test_timed_run_changes_cycles_but_not_bandwidth(self, capsys):
        assert main(["tls", "gzip", "--tasks", "30", "--seed", "2"]) == 0
        legacy_out = capsys.readouterr().out
        assert main([
            "tls", "gzip", "--tasks", "30", "--seed", "2",
            "--bus", "timed:latency=8",
        ]) == 0
        timed_out = capsys.readouterr().out
        assert "Interconnect contention" in timed_out
        assert "Interconnect contention" not in legacy_out

    def test_timed_checkpoint_prints_per_depth_tables(self, capsys):
        assert main([
            "checkpoint", "predictor", "--epochs", "12", "--seed", "3",
            "--max-depth", "2", "--jobs", "1", "--bus", "timed:latency=2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Interconnect contention (depth 1" in out
        assert "Interconnect contention (depth 2" in out
