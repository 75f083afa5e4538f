"""The paper's shape claims (Section 7), checked against one evaluation.

The paper's results are *shapes* — orderings, approximate ratios, where
an effect appears — and a rebuilt workload on a flat timing model
reproduces those, not the absolute numbers.  :data:`CLAIMS` states each
shape once: the figure or table it comes from, the paper's statement,
what is measured (in the paper's unit, % or ×, or the table's own), and
a bound.

Every measure reads only what ``repro reproduce`` already holds: the
TLS and TM comparisons by application and the Figure 15 / Table 8 sweep
rows.  :func:`check_claims` evaluates the table and
:func:`render_claims` prints it.  Some claims need near-default sizing
(at a few transactions per thread an ordering can flip on noise), so
``reproduce`` prints the block without archiving it and without letting
it set the exit status; ``tests/analysis/test_claims.py`` requires every
claim to hold at ``reproduce``'s defaults.

A measure that cannot be computed (an empty average, a zero
denominator) is ``nan``, which satisfies no bound.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, NamedTuple, Sequence, Union

from repro.analysis.accuracy import AccuracyRow
from repro.analysis.bandwidth import commit_bandwidth_ratio
from repro.analysis.experiments import TlsComparison, TmComparison
from repro.analysis.report import render_table


class Evidence(NamedTuple):
    """What one evaluation holds for the claims to read."""

    tls: Mapping[str, TlsComparison]
    tm: Mapping[str, TmComparison]
    rows: Sequence[AccuracyRow]


Measure = Callable[[Evidence], float]

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
        ">=": operator.ge}


@dataclass(frozen=True)
class Claim:
    """One shape claim: ``measure(evidence) <op> bound`` must hold."""

    figure: str
    statement: str
    #: What ``measure`` returns, with its unit.
    measured: str
    measure: Measure
    op: str
    #: A constant, or a measure of its own where the paper compares two
    #: measured quantities.
    bound: Union[float, Measure]


@dataclass(frozen=True)
class ClaimResult:
    """One claim evaluated on one evaluation's evidence."""

    claim: Claim
    value: float
    limit: float
    holds: bool

    @property
    def bound_text(self) -> str:
        if callable(self.claim.bound):
            return f"{self.claim.op} {self.limit:.2f}"
        return f"{self.claim.op} {self.limit:g}"


# ----------------------------------------------------------------------
# Measures
# ----------------------------------------------------------------------


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else math.nan


def _geomean(values: Iterable[float]) -> float:
    """The paper's summary statistic (``nan`` unless every value is
    positive)."""
    values = list(values)
    if not values or min(values) <= 0:
        return math.nan
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else math.nan


def _percent(part: float, whole: float) -> float:
    return 100.0 * _ratio(part, whole)


def _tls_speedup(e: Evidence, scheme: str) -> float:
    """Figure 10's geo-mean speedup over sequential execution."""
    return _geomean(c.speedup(scheme) for c in e.tls.values())


def _tm_speedup(e: Evidence, scheme: str) -> float:
    """Figure 11's geo-mean speedup over Eager."""
    return _geomean(c.speedup_over_eager(scheme) for c in e.tm.values())


def _bandwidth_totals(e: Evidence, scheme: str) -> List[float]:
    """Figure 13's Total column for ``scheme``, one value per printed
    row: an application whose Eager baseline moved no bytes has no row
    (``reproduce`` already warned), so it is skipped here too."""
    totals = []
    for comparison in e.tm.values():
        breakdown = comparison.bandwidth_vs_eager(scheme)
        if breakdown is not None:
            totals.append(breakdown["Total"])
    return totals


def _mean_stat(comparisons: Iterable, attribute: str) -> float:
    """The Avg row of Table 6 or 7: Bulk's ``attribute`` over apps."""
    return _mean(getattr(c.stats["Bulk"], attribute) for c in comparisons)


def _fp(e: Evidence, names: Sequence[str]) -> float:
    """Mean false-positive fraction (no permutation) of ``names``."""
    by_name = {row.name: row for row in e.rows}
    return _mean(by_name[name].fp_nominal for name in names)


_SMALL = ("S1", "S2", "S3")
_LARGE = ("S19", "S22", "S23")


def _mcf_write_set_excess(e: Evidence) -> float:
    sizes = [c.stats["Bulk"].avg_write_set for c in e.tls.values()]
    return e.tls["mcf"].stats["Bulk"].avg_write_set - min(sizes)


def _tm_commit_bandwidth(e: Evidence) -> float:
    """Figure 14's average: Bulk's commit bytes, % of Lazy's."""
    return _mean(c.commit_bandwidth_vs_lazy() for c in e.tm.values())


def _tls_commit_bandwidth(e: Evidence) -> float:
    return min(
        commit_bandwidth_ratio(c.stats["Bulk"].bandwidth,
                               c.stats["Lazy"].bandwidth)
        for c in e.tls.values()
    )


def _segments_missing_bar(e: Evidence) -> int:
    return sum(
        not row.fp_best <= row.fp_nominal <= row.fp_worst for row in e.rows
    )


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

CLAIMS: List[Claim] = [
    Claim("Fig. 10", "Eager >= Lazy in TLS",
          "Lazy geo-mean speedup, % of Eager's",
          lambda e: _percent(_tls_speedup(e, "Lazy"),
                             _tls_speedup(e, "Eager")), "<=", 100),
    Claim("Fig. 10", "Lazy >= Bulk in TLS",
          "Bulk geo-mean speedup, % of Lazy's",
          lambda e: _percent(_tls_speedup(e, "Bulk"),
                             _tls_speedup(e, "Lazy")), "<=", 100),
    Claim("Fig. 10", "Bulk within ~10% of Eager",
          "Bulk geo-mean speedup, % of Eager's",
          lambda e: _percent(_tls_speedup(e, "Bulk"),
                             _tls_speedup(e, "Eager")), ">=", 90),
    Claim("Fig. 10", "Partial Overlap helps",
          "BulkNoOverlap geo-mean speedup, % of Bulk's",
          lambda e: _percent(_tls_speedup(e, "BulkNoOverlap"),
                             _tls_speedup(e, "Bulk")), "<", 100),
    Claim("Fig. 11", "Bulk ~ Lazy in TM",
          "|Bulk - Lazy| geo-mean speedup, % of Lazy's",
          lambda e: _percent(abs(_tm_speedup(e, "Bulk")
                                 - _tm_speedup(e, "Lazy")),
                             _tm_speedup(e, "Lazy")), "<", 10),
    Claim("Fig. 11", "sjbb2k is faster under Lazy",
          "sjbb2k Lazy speedup over Eager, %",
          lambda e: 100.0 * e.tm["sjbb2k"].speedup_over_eager("Lazy"),
          ">", 100),
    Claim("Fig. 13", "Bulk's traffic near Lazy's",
          "Bulk geo-mean total, x Lazy's",
          lambda e: _ratio(_geomean(_bandwidth_totals(e, "Bulk")),
                           _geomean(_bandwidth_totals(e, "Lazy"))), "<", 1.6),
    Claim("Fig. 14", "Bulk commits far cheaper",
          "mean Bulk commit bytes, % of Lazy's",
          _tm_commit_bandwidth, "<", 60),
    Claim("Fig. 14", "Bulk commits cost bytes",
          "mean Bulk commit bytes, % of Lazy's",
          _tm_commit_bandwidth, ">", 0),
    Claim("Sec. 7.4", "TLS Bulk commits win somewhere",
          "lowest app's Bulk commit bytes, % of Lazy's",
          _tls_commit_bandwidth, "<", 100),
    # The bound keeps the original 1e-9 tolerance in fraction units.
    Claim("Fig. 15", "false positives fall with size",
          "S19/S22/S23 mean FP %; bound: S1-S3's",
          lambda e: 100.0 * _fp(e, _LARGE), "<=",
          lambda e: 100.0 * (_fp(e, _SMALL) + 1e-9)),
    Claim("Fig. 15", "bars lie within their segments",
          "configs whose bar is outside best..worst",
          _segments_missing_bar, "<=", 0),
    Claim("Table 6", "read sets exceed write sets",
          "mean read set, x mean write set",
          lambda e: _ratio(_mean_stat(e.tls.values(), "avg_read_set"),
                           _mean_stat(e.tls.values(), "avg_write_set")),
          ">", 1),
    Claim("Table 6", "dependence sets are small",
          "mean dep set, % of mean read set",
          lambda e: _percent(_mean_stat(e.tls.values(), "avg_dependence_set"),
                             _mean_stat(e.tls.values(), "avg_read_set")),
          "<", 100),
    Claim("Table 6", "aliasing squashes are a minority",
          "mean false-positive squashes, %",
          lambda e: _mean_stat(e.tls.values(), "false_squash_percent"),
          "<", 60),
    Claim("Table 6", "crafty reads more than gzip",
          "crafty read set, % of gzip's",
          lambda e: _percent(e.tls["crafty"].stats["Bulk"].avg_read_set,
                             e.tls["gzip"].stats["Bulk"].avg_read_set),
          ">", 100),
    Claim("Table 6", "mcf has the smallest write set",
          "mcf write set - smallest, words",
          _mcf_write_set_excess, "<=", 1),
    Claim("Table 7", "read sets exceed write sets",
          "mean read set, x mean write set",
          lambda e: _ratio(_mean_stat(e.tm.values(), "avg_read_set"),
                           _mean_stat(e.tm.values(), "avg_write_set")),
          ">", 1),
    Claim("Table 7", "dependence sets are small",
          "mean dep set, % of mean write set",
          lambda e: _percent(_mean_stat(e.tm.values(), "avg_dependence_set"),
                             _mean_stat(e.tm.values(), "avg_write_set")),
          "<", 100),
    Claim("Table 7", "aliasing squashes are a minority",
          "mean false-positive squashes, %",
          lambda e: _mean_stat(e.tm.values(), "false_squash_percent"),
          "<", 60),
    Claim("Table 8", "RLE beats the raw register",
          "largest mean RLE size, % of full",
          lambda e: max(_percent(r.avg_compressed_bits, r.full_size_bits)
                        for r in e.rows), "<", 100),
    Claim("Table 8", "RLE packets are not empty",
          "smallest mean RLE size, bits",
          lambda e: min(r.avg_compressed_bits for r in e.rows), ">", 0),
]


def check_claims(
    tls: Mapping[str, TlsComparison],
    tm: Mapping[str, TmComparison],
    rows: Sequence[AccuracyRow],
) -> List[ClaimResult]:
    """Evaluate every claim of :data:`CLAIMS`, in table order."""
    evidence = Evidence(tls, tm, rows)
    results = []
    for claim in CLAIMS:
        value = claim.measure(evidence)
        limit = claim.bound(evidence) if callable(claim.bound) else claim.bound
        results.append(
            ClaimResult(claim, value, limit, _OPS[claim.op](value, limit))
        )
    return results


def render_claims(results: Sequence[ClaimResult]) -> str:
    """The claims as one table, each row marked ``holds`` or ``FAILS``."""
    held = sum(result.holds for result in results)
    return render_table(
        ["Figure", "Claim", "Measured", "Value", "Bound", "Result"],
        [
            [r.claim.figure, r.claim.statement, r.claim.measured, r.value,
             r.bound_text, "holds" if r.holds else "FAILS"]
            for r in results
        ],
        title=f"Paper claims (Section 7): {held} of {len(results)} hold",
    )
