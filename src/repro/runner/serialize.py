"""JSON round-tripping of experiment results.

The parallel runner moves results across process boundaries and persists
them in its on-disk cache, so every comparison object must survive a trip
through plain JSON **canonically**: the same simulation always produces
byte-identical encoded results, regardless of worker count or scheduling
order.  That canonical form is what the determinism tests compare.

Only data is serialised — derived metrics (speedups, percentages) are
recomputed by the dataclasses' properties after reconstruction.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from dataclasses import fields as dataclass_fields
from typing import Any, Dict

from repro.analysis.accuracy import AccuracyRow, AccuracyStudy
from repro.analysis.experiments import (
    CheckpointComparison,
    TlsComparison,
    TmComparison,
)
from repro.checkpoint.stats import CheckpointStats
from repro.coherence.bus import BandwidthBreakdown
from repro.coherence.message import BandwidthCategory, MessageKind
from repro.tls.stats import TlsStats
from repro.tm.stats import TmStats


def canonical_json(value: Any) -> str:
    """The one true JSON encoding: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Bandwidth
# ----------------------------------------------------------------------

def bandwidth_to_dict(bandwidth: BandwidthBreakdown) -> Dict[str, Any]:
    return {
        "by_category": {
            category.name: amount
            for category, amount in bandwidth.by_category.items()
        },
        "commit_bytes": bandwidth.commit_bytes,
        "message_counts": {
            kind.name: count for kind, count in bandwidth.message_counts.items()
        },
    }


def bandwidth_from_dict(data: Dict[str, Any]) -> BandwidthBreakdown:
    """Rebuild a breakdown, tolerating enum skew in either direction.

    A result written by an older (or newer) build may name categories or
    message kinds this build does not know — those entries are dropped —
    and may lack kinds this build pre-fills, which simply keep their zero
    default.  Raising ``KeyError`` here would poison every cache lookup
    after an enum change.
    """
    bandwidth = BandwidthBreakdown()
    for name, amount in data["by_category"].items():
        if name in BandwidthCategory.__members__:
            bandwidth.by_category[BandwidthCategory[name]] = amount
    bandwidth.commit_bytes = data["commit_bytes"]
    for name, count in data["message_counts"].items():
        if name in MessageKind.__members__:
            bandwidth.message_counts[MessageKind[name]] = count
    return bandwidth


# ----------------------------------------------------------------------
# Stats (generic over the two dataclasses)
# ----------------------------------------------------------------------

def _stats_to_dict(stats: Any) -> Dict[str, Any]:
    result: Dict[str, Any] = {}
    for spec in dataclass_fields(stats):
        value = getattr(stats, spec.name)
        if isinstance(value, BandwidthBreakdown):
            value = bandwidth_to_dict(value)
        elif isinstance(value, dict):
            # JSON object keys are strings; int keys are restored on load.
            value = {str(key): entry for key, entry in value.items()}
        result[spec.name] = value
    return result


def _stats_from_dict(cls: type, data: Dict[str, Any]) -> Any:
    stats = cls()
    for spec in dataclass_fields(stats):
        if spec.name not in data:
            continue
        value = data[spec.name]
        current = getattr(stats, spec.name)
        if isinstance(current, BandwidthBreakdown):
            value = bandwidth_from_dict(value)
        elif isinstance(current, dict):
            value = {int(key): entry for key, entry in value.items()}
        setattr(stats, spec.name, value)
    return stats


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------

def comparison_to_dict(comparison: Any) -> Dict[str, Any]:
    """Encode a :class:`TmComparison`, :class:`TlsComparison`,
    :class:`CheckpointComparison` or :class:`AccuracyStudy`."""
    if isinstance(comparison, TmComparison):
        return {
            "kind": "tm",
            "app": comparison.app,
            "cycles": dict(comparison.cycles),
            "stats": {
                scheme: _stats_to_dict(stats)
                for scheme, stats in comparison.stats.items()
            },
            # Always empty: a comparison collects no samples.  The
            # end-to-end benchmark's digests hash this encoding, so the
            # key stays until a benchmark change re-pins them; the
            # decoder ignores it.
            "samples_by_scheme": {},
        }
    if isinstance(comparison, TlsComparison):
        return {
            "kind": "tls",
            "app": comparison.app,
            "sequential_cycles": comparison.sequential_cycles,
            "cycles": dict(comparison.cycles),
            "stats": {
                scheme: _stats_to_dict(stats)
                for scheme, stats in comparison.stats.items()
            },
        }
    if isinstance(comparison, CheckpointComparison):
        return {
            "kind": "checkpoint",
            "app": comparison.app,
            "rollback_depth": comparison.rollback_depth,
            "cycles": dict(comparison.cycles),
            "stats": {
                scheme: _stats_to_dict(stats)
                for scheme, stats in comparison.stats.items()
            },
        }
    if isinstance(comparison, AccuracyStudy):
        return {
            "kind": "accuracy",
            "samples": comparison.samples,
            "rows": [asdict(row) for row in comparison.rows],
        }
    raise TypeError(f"cannot serialise {type(comparison).__name__}")


def comparison_from_dict(data: Dict[str, Any]) -> Any:
    """Rebuild the comparison object a result dictionary encodes."""
    kind = data["kind"]
    if kind == "tm":
        comparison = TmComparison(app=data["app"])
        comparison.cycles = dict(data["cycles"])
        comparison.stats = {
            scheme: _stats_from_dict(TmStats, stats)
            for scheme, stats in data["stats"].items()
        }
        return comparison
    if kind == "tls":
        comparison = TlsComparison(app=data["app"])
        comparison.sequential_cycles = data["sequential_cycles"]
        comparison.cycles = dict(data["cycles"])
        comparison.stats = {
            scheme: _stats_from_dict(TlsStats, stats)
            for scheme, stats in data["stats"].items()
        }
        return comparison
    if kind == "checkpoint":
        comparison = CheckpointComparison(
            app=data["app"], rollback_depth=data["rollback_depth"]
        )
        comparison.cycles = dict(data["cycles"])
        comparison.stats = {
            scheme: _stats_from_dict(CheckpointStats, stats)
            for scheme, stats in data["stats"].items()
        }
        return comparison
    if kind == "accuracy":
        return AccuracyStudy(
            samples=data["samples"],
            rows=tuple(AccuracyRow(**row) for row in data["rows"]),
        )
    raise ValueError(f"unknown result kind {kind!r}")
