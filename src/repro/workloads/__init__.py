"""Workload generators: the paper's applications, rebuilt.

* :mod:`repro.workloads.kernels` — real multithreaded algorithm kernels
  (crypt, ray tracing, LU, Monte Carlo, molecular dynamics, Fourier
  series, jbb-style business logic) instrumented to emit word-accurate
  memory traces with transaction annotations — the TM workloads of
  Table 4.
* :mod:`repro.workloads.tls_spec` — SPECint2000-profile TLS task
  generators calibrated against the per-application task statistics the
  paper reports in Table 6.
"""

from repro.workloads.kernels import TM_KERNELS, build_tm_workload
from repro.workloads.tls_spec import (
    TLS_APPLICATIONS,
    TlsAppProfile,
    build_tls_workload,
)

__all__ = [
    "TM_KERNELS",
    "build_tm_workload",
    "TLS_APPLICATIONS",
    "TlsAppProfile",
    "build_tls_workload",
]
