"""Plain-text rendering of tables and bar charts.

The CLI prints the same rows and series the paper's tables and figures
report; these helpers keep that output consistent and readable in a
terminal or a CI log.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Union

Number = Union[int, float]


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.2f}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """A fixed-width ASCII table."""
    table: List[List[str]] = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in table:
        for column, cell in enumerate(row):
            widths[column] = max(widths[column], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(
        " | ".join(header.ljust(width) for header, width in zip(headers, widths))
    )
    lines.append(separator)
    for row in table:
        lines.append(
            " | ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def render_csv(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> str:
    """The same table as comma-separated values (machine-readable).

    Floats keep full precision here — the ASCII renderer rounds for
    humans, the CSV is for downstream tooling.
    """
    def cell(value: object) -> str:
        text = repr(value) if isinstance(value, float) else str(value)
        if "," in text or '"' in text:
            text = '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(cell(h) for h in headers)]
    for row in rows:
        lines.append(",".join(cell(c) for c in row))
    return "\n".join(lines)


def bandwidth_reconciliation_rows(
    trace_bus: Dict[str, Dict[str, Any]],
    breakdowns: Dict[str, Any],
) -> List[List[object]]:
    """Cross-check traced bus traffic against the simulator's accounting.

    ``trace_bus`` is the ``"bus"`` member of an
    :meth:`repro.obs.tracer.EventTracer.summary` — per scheme, the bytes
    each ``bus.msg`` event carried, summed by category — and
    ``breakdowns`` maps the same scheme names to their
    :class:`~repro.coherence.bus.BandwidthBreakdown`.  Both are fed from
    the same statement in :meth:`~repro.coherence.bus.Bus.record`, so
    the totals must agree **exactly**; any ``MISMATCH`` row means bytes
    were accounted outside the instrumented path.
    """
    rows: List[List[object]] = []
    for scheme in sorted(set(trace_bus) | set(breakdowns)):
        traced = trace_bus.get(scheme, {})
        traced_total = sum(traced.get("bytes", {}).values())
        traced_commit = traced.get("commit_bytes", 0)
        breakdown = breakdowns.get(scheme)
        sim_total = breakdown.total_bytes if breakdown is not None else 0
        sim_commit = breakdown.commit_bytes if breakdown is not None else 0
        ok = traced_total == sim_total and traced_commit == sim_commit
        rows.append(
            [
                scheme,
                traced_total,
                sim_total,
                traced_commit,
                sim_commit,
                "OK" if ok else "MISMATCH",
            ]
        )
    return rows


RECONCILIATION_HEADERS = [
    "scheme",
    "traced bytes",
    "sim bytes",
    "traced commit",
    "sim commit",
    "status",
]


def render_bandwidth_reconciliation(
    trace_bus: Dict[str, Dict[str, Any]],
    breakdowns: Dict[str, Any],
    title: str = "Trace vs. BandwidthBreakdown reconciliation",
) -> str:
    """The reconciliation rows as an ASCII table."""
    return render_table(
        RECONCILIATION_HEADERS,
        bandwidth_reconciliation_rows(trace_bus, breakdowns),
        title=title,
    )


def reconciliation_ok(rows: Sequence[Sequence[object]]) -> bool:
    """Whether every reconciliation row agreed exactly."""
    return all(row[-1] == "OK" for row in rows)


CONTENTION_HEADERS = [
    "Scheme",
    "Grants",
    "Requests",
    "WaitCyc",
    "AvgWait",
    "MaxQ",
    "BusyCyc",
    "Util%",
]


def contention_rows(stats_by_scheme: Dict[str, Any]) -> List[List[object]]:
    """Per-scheme interconnect contention rows (timed bus model).

    ``stats_by_scheme`` maps scheme names to any
    :class:`~repro.spec.stats.SpecStats`-derived object; the row set is
    all zeros under the legacy bus, which is why callers only print it
    for timed configurations.
    """
    rows: List[List[object]] = []
    for scheme, stats in stats_by_scheme.items():
        rows.append(
            [
                scheme,
                stats.bus_grants,
                stats.bus_requests,
                stats.bus_wait_cycles,
                stats.bus_avg_wait,
                stats.bus_max_queue_depth,
                stats.bus_busy_cycles,
                stats.bus_utilisation_percent,
            ]
        )
    return rows


def render_contention(
    stats_by_scheme: Dict[str, Any],
    title: str = "Interconnect contention",
) -> str:
    """The contention rows as an ASCII table."""
    return render_table(
        CONTENTION_HEADERS, contention_rows(stats_by_scheme), title=title
    )


def render_bars(
    series: Dict[str, Number],
    width: int = 50,
    title: str = "",
    unit: str = "",
) -> str:
    """A horizontal ASCII bar chart (one bar per key).

    ``nan`` values (undefined metrics, e.g. a ratio over a zero
    baseline) render as ``n/a`` with no bar and are excluded from the
    peak used to scale the others.
    """
    if not series:
        return title
    finite = [abs(float(v)) for v in series.values() if not math.isnan(float(v))]
    peak = (max(finite) if finite else 0.0) or 1.0
    label_width = max(len(label) for label in series)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in series.items():
        if math.isnan(float(value)):
            lines.append(f"{label.ljust(label_width)} | n/a")
            continue
        bar = "#" * max(1, int(round(width * abs(float(value)) / peak)))
        lines.append(
            f"{label.ljust(label_width)} | {bar} {float(value):.2f}{unit}"
        )
    return "\n".join(lines)
