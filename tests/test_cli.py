"""Tests for the experiment CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tm_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tm", "doom3"])

    def test_defaults(self):
        args = build_parser().parse_args(["tm", "mc"])
        assert args.txns == 10 and args.seed == 42 and not args.partial


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sjbb2k" in out and "crafty" in out

    def test_tm_run(self, capsys):
        assert main(["tm", "mc", "--txns", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "TM: mc" in out
        assert "Bulk" in out and "Eager" in out
        assert "commit bandwidth Bulk/Lazy" in out

    def test_tm_partial(self, capsys):
        assert main(["tm", "mc", "--txns", "3", "--partial"]) == 0
        assert "Bulk-Partial" in capsys.readouterr().out

    def test_tls_run(self, capsys):
        assert main(["tls", "gzip", "--tasks", "30", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "TLS: gzip" in out and "BulkNoOverlap" in out

    def test_accuracy(self, capsys):
        assert main([
            "accuracy", "--samples", "40", "--txns", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "S14" in out and "false positives" in out


class TestObservabilityFlags:
    def test_tm_trace_and_metrics_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main([
            "tm", "mc", "--txns", "3", "--seed", "1",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "reconciliation" in out
        assert "MISMATCH" not in out

        import json
        lines = trace.read_text(encoding="utf-8").splitlines()
        assert lines, "trace file is empty"
        first = json.loads(lines[0])
        assert first["kind"] == "run.begin" and first["sim"] == "tm"
        snapshot = json.loads(metrics.read_text(encoding="utf-8"))
        assert snapshot["counters"]["tm.commits"] > 0

    def test_tls_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "tls", "gzip", "--tasks", "20", "--seed", "2",
            "--trace-out", str(trace),
        ]) == 0
        assert "MISMATCH" not in capsys.readouterr().out
        assert trace.stat().st_size > 0

    def test_tracing_does_not_change_the_table(self, tmp_path, capsys):
        assert main(["tm", "mc", "--txns", "3", "--seed", "1"]) == 0
        bare = capsys.readouterr().out
        assert main([
            "tm", "mc", "--txns", "3", "--seed", "1",
            "--trace-out", str(tmp_path / "t.jsonl"),
        ]) == 0
        traced = capsys.readouterr().out
        # Identical up to the extra observability sections.
        assert traced.startswith(bare)
