"""Bandwidth normalisation (Figures 13 and 14).

Figure 13 stacks each scheme's traffic by category, normalised to the
*Eager* total for the same application; Figure 14 reports Bulk's commit
bandwidth as a percentage of Lazy's.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.coherence.bus import BandwidthBreakdown
from repro.coherence.message import BandwidthCategory


def normalized_breakdown(
    breakdown: BandwidthBreakdown,
    baseline_total_bytes: int,
    label: str = "",
    warn: "Optional[Callable[[str], None]]" = None,
) -> Optional[Dict[str, float]]:
    """Per-category percentages of a baseline scheme's total bytes.

    Returns a mapping ``{"Inv": ..., "Coh": ..., "UB": ..., "WB": ...,
    "Fill": ..., "Total": ...}`` in percent of ``baseline_total_bytes``.

    A degenerate baseline (zero total bytes — e.g. a workload so small
    the baseline scheme never touched the bus) cannot be normalised
    against; the row is skipped by returning ``None`` instead of aborting
    the whole report.  The skip is reported once, here, through the
    ``warn`` callback (callers pass e.g. a stderr printer) when one is
    supplied.
    """
    if baseline_total_bytes <= 0:
        if warn is not None:
            warn(f"{label}: zero baseline bandwidth, row skipped")
        return None
    result = {
        category.value: 100.0
        * breakdown.category_bytes(category)
        / baseline_total_bytes
        for category in BandwidthCategory
    }
    result["Total"] = 100.0 * breakdown.total_bytes / baseline_total_bytes
    return result


def commit_bandwidth_ratio(
    bulk: BandwidthBreakdown, lazy: BandwidthBreakdown
) -> float:
    """Bulk commit bytes as a percentage of Lazy commit bytes (Fig. 14).

    When Lazy moved no commit bytes the ratio is undefined — reported as
    ``nan`` (rendered ``n/a``), not ``0.0``, which would wrongly read as
    "Bulk commits for free".
    """
    if lazy.commit_bytes <= 0:
        return float("nan")
    return 100.0 * bulk.commit_bytes / lazy.commit_bytes
