"""Tests for bandwidth normalisation."""

import math

import pytest

from repro.analysis.bandwidth import commit_bandwidth_ratio, normalized_breakdown
from repro.coherence.bus import BandwidthBreakdown
from repro.coherence.message import BandwidthCategory


def breakdown(inv=0, fill=0, commit=0):
    b = BandwidthBreakdown()
    b.by_category[BandwidthCategory.INV] = inv
    b.by_category[BandwidthCategory.FILL] = fill
    b.commit_bytes = commit
    return b


class TestNormalizedBreakdown:
    def test_percentages(self):
        result = normalized_breakdown(breakdown(inv=50, fill=50), 200)
        assert result["Inv"] == 25.0
        assert result["Fill"] == 25.0
        assert result["Total"] == 50.0

    def test_zero_baseline_degrades_gracefully(self):
        # Regression: a degenerate baseline used to raise ValueError and
        # abort the whole report; now the row is skipped (None), and the
        # skip is reported once.
        warnings = []
        assert normalized_breakdown(
            breakdown(), 0, label="app/Bulk", warn=warnings.append
        ) is None
        assert normalized_breakdown(breakdown(inv=5), -1) is None
        assert warnings == ["app/Bulk: zero baseline bandwidth, row skipped"]

    def test_nonzero_baseline_does_not_warn(self):
        warnings = []
        assert normalized_breakdown(breakdown(inv=5), 10, warn=warnings.append)
        assert warnings == []


class TestCommitRatio:
    def test_ratio(self):
        assert commit_bandwidth_ratio(
            breakdown(commit=17), breakdown(commit=100)
        ) == pytest.approx(17.0)

    def test_zero_lazy_commit_is_nan(self):
        # Regression: a zero Lazy denominator used to report 0.0, which
        # reads as "Bulk commits for free"; the ratio is undefined.
        ratio = commit_bandwidth_ratio(breakdown(commit=5), breakdown())
        assert math.isnan(ratio)

    def test_nan_renders_as_na(self):
        from repro.analysis.report import _format_cell, render_bars

        assert _format_cell(float("nan")) == "n/a"
        chart = render_bars({"a": float("nan"), "b": 50.0}, width=10)
        lines = chart.splitlines()
        assert lines[0].endswith("n/a")
        assert "#" in lines[1]
