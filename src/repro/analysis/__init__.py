"""Evaluation harness: the code that regenerates every table and figure.

* :mod:`repro.analysis.experiments` — end-to-end drivers for the TM and
  TLS comparisons (Figures 10, 11, 13, 14; Tables 6 and 7).
* :mod:`repro.analysis.accuracy` — the signature size-vs-accuracy study
  (Figure 15, Table 8).
* :mod:`repro.analysis.fig12` — the Figure 12 Eager-pathology scenarios.
* :mod:`repro.analysis.claims` — the paper's shape claims as one table,
  checked against the results ``repro reproduce`` holds.
* :mod:`repro.analysis.bandwidth` — bandwidth normalisation helpers.
* :mod:`repro.analysis.report` — plain-text table/figure rendering.
"""

from repro.analysis.accuracy import (
    collect_tm_samples,
    false_positive_fraction,
    sweep_signature_configs,
)
from repro.analysis.bandwidth import (
    commit_bandwidth_ratio,
    normalized_breakdown,
)
from repro.analysis.experiments import (
    TlsComparison,
    TmComparison,
    run_tls_comparison,
    run_tm_comparison,
)
from repro.analysis.report import render_bars, render_table

__all__ = [
    "collect_tm_samples",
    "false_positive_fraction",
    "sweep_signature_configs",
    "commit_bandwidth_ratio",
    "normalized_breakdown",
    "TlsComparison",
    "TmComparison",
    "run_tls_comparison",
    "run_tm_comparison",
    "render_bars",
    "render_table",
]
