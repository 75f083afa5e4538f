"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro list
    python -m repro tm sjbb2k --txns 10
    python -m repro tls crafty --tasks 120
    python -m repro checkpoint predictor --epochs 48
    python -m repro accuracy --samples 300
    python -m repro fig12
    python -m repro reproduce --out results

Each subcommand prints the rows of one table or figure; ``reproduce``
runs them all, archives them, and prints the paper's claims checked
against them.  The CLI is a thin, scriptable wrapper over
:mod:`repro.analysis`.  Scheme names and their order come from the
:mod:`repro.spec` scheme table — nothing here hard-codes a scheme list.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
from typing import Any, List, Optional, Tuple

from repro.analysis.accuracy import collect_tm_samples, sweep_signature_configs
from repro.analysis.experiments import run_tls_comparison, run_tm_comparison
from repro.analysis.report import (
    bandwidth_reconciliation_rows,
    reconciliation_ok,
    render_bandwidth_reconciliation,
    render_bars,
    render_contention,
    render_csv,
    render_table,
)
from repro.checkpoint.workload import CHECKPOINT_WORKLOADS
from repro.core.signature_config import TABLE8_CONFIGS
from repro.errors import ConfigurationError
from repro.spec import RunConfig, scheme_names
from repro.workloads.kernels import TM_KERNELS
from repro.workloads.tls_spec import TLS_APPLICATIONS


def _warn_stderr(message: str) -> None:
    """The CLI's warning sink (kept separate so tests can capture it)."""
    print(f"warning: {message}", file=sys.stderr)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """One flag per :class:`~repro.spec.RunConfig` field;
    :func:`_run_config` reads them back."""
    from repro.core.backend import DEFAULT_BACKEND_NAME, backend_names

    group = parser.add_argument_group("run options")
    group.add_argument(
        "--bus", default="legacy", metavar="SPEC",
        help="interconnect model: 'legacy' (default) or "
        "'timed[:latency=N,policy=P,window=N]' (see docs/INTERCONNECT.md)",
    )
    group.add_argument(
        "--sig-backend", default=DEFAULT_BACKEND_NAME, metavar="NAME",
        help=f"signature storage backend: {', '.join(backend_names())} "
        "(all bit-identical; 'numpy' falls back to 'packed' without numpy)",
    )


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The validated run options of a subcommand's flags, built before
    any output file, cache directory, or simulation exists."""
    return RunConfig(bus=args.bus, sig_backend=args.sig_backend)


#: (attribute, flag) of every directory a subcommand may create.
_OUTPUT_DIRECTORIES = (("out", "--out"), ("cache_dir", "--cache-dir"))
#: (attribute, flag) of every file a subcommand may write.
_OUTPUT_FILES = (("trace_out", "--trace-out"), ("metrics_out", "--metrics-out"))


def _check_output_paths(args: argparse.Namespace) -> None:
    """Reject an output path that cannot be written, naming its flag,
    before any simulation runs or any output file or directory exists.

    A directory may be missing, but its nearest existing ancestor must
    be a directory.  A file must not be a directory, and its parent
    must be an existing directory or ``reproduce``'s ``--out``, which
    ``reproduce`` creates before writing anything.
    """
    for attribute, flag in _OUTPUT_DIRECTORIES:
        value = getattr(args, attribute, None)
        if value is None:
            continue
        path = pathlib.Path(value)
        existing = next(p for p in (path, *path.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigurationError(
                f"{flag} {value}: {existing} is not a directory"
            )
    out = getattr(args, "out", None)
    for attribute, flag in _OUTPUT_FILES:
        value = getattr(args, attribute, None)
        if value is None:
            continue
        path = pathlib.Path(value)
        parent = path.parent
        if path.is_dir():
            problem = f"{path} is a directory"
        elif parent.is_dir() or (
            out is not None and os.path.abspath(parent) == os.path.abspath(out)
        ):
            continue
        elif parent.exists():
            problem = f"{parent} is not a directory"
        else:
            problem = f"directory {parent} does not exist"
        raise ConfigurationError(f"{flag} {value}: {problem}")


def _run_grid(args: argparse.Namespace, cache_dir: Any, points: Any) -> Any:
    """Run a grid subcommand's points through a
    :class:`~repro.runner.GridRunner` and return the merged result;
    ``--trace-out``/``--metrics-out`` switch on per-point
    instrumentation."""
    from repro.runner import GridRunner

    try:
        runner = GridRunner(
            jobs=args.jobs, cache_dir=cache_dir,
            observability=bool(args.trace_out or args.metrics_out),
        )
    except (FileExistsError, NotADirectoryError):
        raise ConfigurationError(
            f"cache directory {cache_dir} is not a directory"
        ) from None
    merged = runner.run(points)
    if merged.cached_keys:
        print(f"{len(merged.cached_keys)} grid point(s) served from cache")
    return merged


def _reconcile(
    trace_bus: Any, stats_by_scheme: Any, **render_options: str
) -> Tuple[str, bool]:
    """The trace-vs-:class:`~repro.coherence.bus.BandwidthBreakdown`
    reconciliation table of one run, and whether every row agrees."""
    breakdowns = {
        scheme: stats.bandwidth for scheme, stats in stats_by_scheme.items()
    }
    rows = bandwidth_reconciliation_rows(trace_bus, breakdowns)
    table = render_bandwidth_reconciliation(
        trace_bus, breakdowns, **render_options
    )
    return table, reconciliation_ok(rows)


def _reconciliation_failed() -> int:
    """Report a trace-vs-stats byte mismatch: an internal accounting
    bug, so the exit code is non-zero."""
    print("error: traced bytes do not reconcile with the simulator's "
          "bandwidth accounting", file=sys.stderr)
    return 3


def _grid_observability(
    args: argparse.Namespace, merged: Any
) -> Tuple[List[str], bool]:
    """Write an instrumented grid run's ``--metrics-out`` and
    ``--trace-out`` files, then reconcile every point's traced bus bytes
    against its :class:`~repro.coherence.bus.BandwidthBreakdown`.

    Returns one reconciliation table per point, in key order, and
    whether every point reconciles.
    """
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as stream:
            stream.write(merged.metrics_json() + "\n")
        print(f"wrote merged metrics to {args.metrics_out}")
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as stream:
            stream.write(merged.trace_jsonl())
        print(f"wrote {len(merged.traces)} trace summaries to "
              f"{args.trace_out}")
    comparisons = merged.comparisons()
    checked = [
        _reconcile(merged.traces[key]["bus"], comparisons[key].stats, title=key)
        for key in sorted(merged.traces)
    ]
    return [table for table, _ in checked], all(ok for _, ok in checked)


def _open_observability(args: argparse.Namespace) -> Tuple[Any, Any]:
    """An :class:`~repro.obs.Observability` bundle for ``--trace-out`` /
    ``--metrics-out``, or ``(None, None)`` when neither flag was given.

    The second member is the owned :class:`~repro.obs.tracer.JsonlWriter`
    (or ``None``); the caller closes it via :func:`_finish_single_run`.
    """
    if not getattr(args, "trace_out", None) and not getattr(args, "metrics_out", None):
        return None, None
    from repro.obs import Observability
    from repro.obs.tracer import JsonlWriter

    writer = JsonlWriter.open(args.trace_out) if args.trace_out else None
    obs = Observability()
    if writer is not None:
        obs.tracer.sink = writer.write
    return obs, writer


def _finish_single_run(
    args: argparse.Namespace,
    bus: Optional[str],
    obs: Any,
    writer: Any,
    stats_by_scheme: Any,
) -> int:
    """Close a single-run subcommand: the contention table (timed bus
    only), then the observability outputs.

    Writes the metrics snapshot, closes the trace writer, and prints the
    trace-vs-:class:`~repro.coherence.bus.BandwidthBreakdown`
    reconciliation; a mismatch is an internal accounting bug and turns
    into a non-zero exit code.
    """
    if bus is not None:
        print()
        print(render_contention(stats_by_scheme,
                                title=f"Interconnect contention ({bus})"))
    if obs is None:
        return 0
    if writer is not None:
        writer.close()
        print(f"wrote {writer.lines} trace events to {args.trace_out}")
    if args.metrics_out:
        snapshot = obs.metrics.snapshot()
        with open(args.metrics_out, "w", encoding="utf-8") as stream:
            json.dump(snapshot, stream, sort_keys=True, indent=2)
            stream.write("\n")
        print(f"wrote metrics to {args.metrics_out}")
    table, ok = _reconcile(obs.tracer.summary()["bus"], stats_by_scheme)
    print()
    print(table)
    return 0 if ok else _reconciliation_failed()


def _cmd_list(_args: argparse.Namespace) -> int:
    print("TM workloads (Table 4):   " + " ".join(sorted(TM_KERNELS)))
    print("TLS workloads (Table 6):  " + " ".join(sorted(TLS_APPLICATIONS)))
    print("Checkpoint workloads:     " + " ".join(sorted(CHECKPOINT_WORKLOADS)))
    print("Signatures (Table 8):     S1 .. S23")
    return 0


def _cmd_tm(args: argparse.Namespace) -> int:
    knobs = _run_config(args).knobs()
    obs, writer = _open_observability(args)
    comparison = run_tm_comparison(
        args.app,
        txns_per_thread=args.txns,
        seed=args.seed,
        include_partial=args.partial,
        obs=obs,
        **knobs,
    )
    rows = []
    for scheme in scheme_names("tm", include_variants=args.partial):
        stats = comparison.stats[scheme]
        rows.append(
            [
                scheme,
                comparison.cycles[scheme],
                comparison.speedup_over_eager(scheme),
                stats.committed_transactions,
                stats.squashes,
                stats.false_positive_squashes,
                stats.bandwidth.commit_bytes,
            ]
        )
    print(
        render_table(
            ["Scheme", "Cycles", "vs Eager", "Commits", "Squashes",
             "FalseSq", "CommitB"],
            rows,
            title=f"TM: {args.app}",
        )
    )
    ratio = comparison.commit_bandwidth_vs_lazy()
    print("\ncommit bandwidth Bulk/Lazy: "
          + ("n/a" if math.isnan(ratio) else f"{ratio:.1f}%"))
    return _finish_single_run(
        args, knobs.get("bus"), obs, writer, comparison.stats
    )


def _cmd_tls(args: argparse.Namespace) -> int:
    knobs = _run_config(args).knobs()
    obs, writer = _open_observability(args)
    comparison = run_tls_comparison(
        args.app,
        num_tasks=args.tasks,
        seed=args.seed,
        obs=obs,
        **knobs,
    )
    rows = []
    for scheme in scheme_names("tls"):
        stats = comparison.stats[scheme]
        rows.append(
            [
                scheme,
                comparison.cycles[scheme],
                comparison.speedup(scheme),
                stats.squashes,
                stats.false_positive_squashes,
                stats.merged_lines,
            ]
        )
    print(
        render_table(
            ["Scheme", "Cycles", "Speedup", "Squashes", "FalseSq", "Merged"],
            rows,
            title=(
                f"TLS: {args.app} "
                f"(sequential {comparison.sequential_cycles} cycles)"
            ),
        )
    )
    return _finish_single_run(
        args, knobs.get("bus"), obs, writer, comparison.stats
    )


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Run one checkpoint workload across rollback depths.

    Every depth in ``1..--max-depth`` is one grid point (Bulk vs the
    exact-log baseline inside), executed through the same
    :class:`~repro.runner.GridRunner` as ``reproduce`` — ``--jobs``,
    caching, and per-point observability behave identically.
    """
    from repro.checkpoint.params import CHECKPOINT_DEFAULTS
    from repro.runner import checkpoint_point

    if args.max_depth > CHECKPOINT_DEFAULTS.max_live_checkpoints:
        raise ConfigurationError(
            f"--max-depth {args.max_depth} exceeds the "
            f"{CHECKPOINT_DEFAULTS.max_live_checkpoints} live checkpoints"
        )
    extra_knobs = _run_config(args).knobs()
    bus = extra_knobs.get("bus")
    points = {
        depth: checkpoint_point(
            args.app,
            seed=args.seed,
            num_epochs=args.epochs,
            rollback_depth=depth,
            **extra_knobs,
        )
        for depth in range(1, args.max_depth + 1)
    }
    merged = _run_grid(args, args.cache_dir, list(points.values()))

    rows = []
    for depth, point in points.items():
        comparison = merged.comparison(point)
        for scheme in scheme_names("checkpoint"):
            stats = comparison.stats[scheme]
            rows.append(
                [
                    depth,
                    scheme,
                    comparison.cycles[scheme],
                    comparison.slowdown_vs_exact(scheme),
                    stats.committed_checkpoints,
                    stats.rollbacks,
                    stats.squashes,
                    stats.rollback_invalidations,
                    stats.false_rollback_invalidations,
                    stats.bandwidth.commit_bytes,
                ]
            )
    print(
        render_table(
            ["Depth", "Scheme", "Cycles", "vsExact", "Commits", "Rollbacks",
             "Squashes", "Inval", "FalseInv", "CommitB"],
            rows,
            title=f"Checkpoint: {args.app} ({args.epochs} epochs)",
        )
    )
    for depth, point in points.items():
        ratio = merged.comparison(point).commit_bandwidth_vs_exact()
        print(f"depth {depth}: commit bandwidth Bulk/Exact: "
              + ("n/a" if math.isnan(ratio) else f"{ratio:.1f}%"))
    if bus is not None:
        for depth, point in points.items():
            print()
            print(render_contention(
                merged.comparison(point).stats,
                title=f"Interconnect contention (depth {depth}, {bus})",
            ))

    if args.trace_out or args.metrics_out:
        sections, all_ok = _grid_observability(args, merged)
        for section in sections:
            print()
            print(section)
        if not all_ok:
            return _reconciliation_failed()
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    samples = collect_tm_samples(
        txns_per_thread=args.txns,
        seed=args.seed,
        max_samples_per_app=args.samples,
    )
    print(f"{len(samples)} dependence-free disambiguation samples")
    # Only the nominal false-positive rate is printed, so no permutation
    # is swept.
    rows = sweep_signature_configs(
        TABLE8_CONFIGS, samples, permutations_per_config=0
    )
    series = {row.name: 100.0 * row.fp_nominal for row in rows}
    print(render_bars(series, title="false positives (%)", unit="%"))
    return 0


def _cmd_fig12(_args: argparse.Namespace) -> int:
    from repro.analysis.fig12 import run_all_cases

    results, *_ = run_all_cases()
    for case, outcome in results.items():
        print(f"{case:24s} {outcome}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Run the whole evaluation and archive tables + CSVs to a directory.

    The (application × scheme) sweeps behind Figures 10-14 and Tables
    6-7 execute through the parallel :class:`~repro.runner.GridRunner`:
    ``--jobs`` controls the worker count, and finished grid points are
    cached under ``<out>/.cache`` (disable with ``--no-cache``) so an
    interrupted or repeated run only recomputes the grid points that
    changed.  Figure 15 / Table 8 are not grid points: their sample
    collection and signature sweep run in this process on every run,
    whether or not the cache is warm.

    After Table 8 it prints :mod:`repro.analysis.claims`' table of the
    paper's shape claims, measured on these same results.  The block is
    printed, not archived, and sets no part of the exit status: at the
    defaults every claim holds (a tier-1 test requires it), but at
    reduced sizings an ordering such as sjbb2k's Lazy-over-Eager
    speedup can flip on noise.
    """
    from repro.runner import tls_point, tm_point

    extra_knobs = _run_config(args).knobs()
    bus = extra_knobs.get("bus")
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        (out / name).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {out / name}")

    cache_dir = None if args.no_cache else (args.cache_dir or out / ".cache")
    tls_points = {
        app: tls_point(
            app, seed=args.seed, num_tasks=args.tls_tasks, **extra_knobs
        )
        for app in sorted(TLS_APPLICATIONS)
    }
    tm_points = {
        app: tm_point(
            app,
            seed=args.seed,
            txns_per_thread=args.tm_txns,
            include_partial=True,
            **extra_knobs,
        )
        for app in sorted(TM_KERNELS)
    }
    merged = _run_grid(
        args, cache_dir, list(tls_points.values()) + list(tm_points.values())
    )

    # Figure 10 / Table 6 --------------------------------------------------
    tls = {app: merged.comparison(point) for app, point in tls_points.items()}
    fig10_headers = ["App"] + list(scheme_names("tls"))
    fig10_rows = [
        [app] + [c.speedup(s) for s in fig10_headers[1:]]
        for app, c in tls.items()
    ]
    write("fig10.txt", render_table(fig10_headers, fig10_rows,
                                    "Figure 10: TLS speedups"))
    write("fig10.csv", render_csv(fig10_headers, fig10_rows))
    t6_headers = ["App", "RdSet", "WrSet", "DepSet", "SqFP%", "FalseInv",
                  "SafeWB", "WrWr1k"]
    t6_rows = [
        [app, s.avg_read_set, s.avg_write_set, s.avg_dependence_set,
         s.false_squash_percent, s.false_invalidations_per_commit,
         s.safe_writebacks_per_task, s.wr_wr_conflicts_per_1k_tasks]
        for app, s in ((a, c.stats["Bulk"]) for a, c in tls.items())
    ]
    write("table6.txt", render_table(t6_headers, t6_rows,
                                     "Table 6: Bulk in TLS"))
    write("table6.csv", render_csv(t6_headers, t6_rows))

    # Figure 11 / 13 / 14 / Table 7 ---------------------------------------
    tm = {app: merged.comparison(point) for app, point in tm_points.items()}
    fig11_headers = ["App"] + list(scheme_names("tm", include_variants=True))
    fig11_rows = [
        [app] + [c.speedup_over_eager(s) for s in fig11_headers[1:]]
        for app, c in tm.items()
    ]
    write("fig11.txt", render_table(fig11_headers, fig11_rows,
                                    "Figure 11: TM speedups over Eager"))
    write("fig11.csv", render_csv(fig11_headers, fig11_rows))

    fig13_headers = ["App", "Scheme", "Inv", "Coh", "UB", "WB", "Fill",
                     "Total"]
    fig13_rows = []
    for app, c in tm.items():
        for scheme in scheme_names("tm"):
            # A degenerate Eager baseline (no bus traffic) cannot be
            # normalised against; the row is skipped with one warning on
            # stderr, emitted inside normalized_breakdown.
            b = c.bandwidth_vs_eager(scheme, warn=_warn_stderr)
            if b is None:
                continue
            fig13_rows.append([app, scheme, b["Inv"], b["Coh"], b["UB"],
                               b["WB"], b["Fill"], b["Total"]])
    write("fig13.txt", render_table(fig13_headers, fig13_rows,
                                    "Figure 13: bandwidth vs Eager (%)"))
    write("fig13.csv", render_csv(fig13_headers, fig13_rows))

    fig14 = {app: c.commit_bandwidth_vs_lazy() for app, c in tm.items()}
    write("fig14.txt", render_bars(fig14,
                                   title="Figure 14: Bulk commit bandwidth "
                                   "(% of Lazy)", unit="%"))
    write("fig14.csv", render_csv(["App", "BulkPctOfLazy"],
                                  [[a, v] for a, v in fig14.items()]))

    t7_headers = ["App", "RdSet", "WrSet", "DepSet", "SqFP%", "FalseInv",
                  "SafeWB"]
    t7_rows = [
        [app, s.avg_read_set, s.avg_write_set, s.avg_dependence_set,
         s.false_squash_percent, s.false_invalidations_per_commit,
         s.safe_writebacks_per_txn]
        for app, s in ((a, c.stats["Bulk"]) for a, c in tm.items())
    ]
    write("table7.txt", render_table(t7_headers, t7_rows,
                                     "Table 7: Bulk in TM"))
    write("table7.csv", render_csv(t7_headers, t7_rows))

    # Figure 15 / Table 8 --------------------------------------------------
    samples = collect_tm_samples(
        txns_per_thread=max(4, args.tm_txns // 2), seed=args.seed,
        max_samples_per_app=args.samples,
    )
    rows = sweep_signature_configs(TABLE8_CONFIGS, samples,
                                   permutations_per_config=2)
    f15_headers = ["Config", "Bits", "FPpct", "FPbest", "FPworst"]
    f15_rows = [
        [r.name, r.full_size_bits, 100 * r.fp_nominal, 100 * r.fp_best,
         100 * r.fp_worst]
        for r in rows
    ]
    write("fig15.txt", render_table(f15_headers, f15_rows,
                                    f"Figure 15 ({len(samples)} samples)"))
    write("fig15.csv", render_csv(f15_headers, f15_rows))
    t8_headers = ["Config", "FullBits", "AvgRLEBits"]
    t8_rows = [[r.name, r.full_size_bits, r.avg_compressed_bits]
               for r in rows]
    write("table8.txt", render_table(t8_headers, t8_rows,
                                     "Table 8: signature catalogue"))
    write("table8.csv", render_csv(t8_headers, t8_rows))

    # Paper claims (printed, not archived) ---------------------------------
    from repro.analysis.claims import check_claims, render_claims

    print()
    print(render_claims(check_claims(tls, tm, rows)))

    # Interconnect contention (timed bus model only) -----------------------
    if bus is not None:
        sections = [
            render_contention(c.stats, title=f"{kind}:{app} ({bus})")
            for kind, by_app in (("tls", tls), ("tm", tm))
            for app, c in sorted(by_app.items())
        ]
        write("contention.txt", "\n\n".join(sections))

    # Observability artifacts ----------------------------------------------
    if args.trace_out or args.metrics_out:
        sections, all_ok = _grid_observability(args, merged)
        write("reconciliation.txt", "\n\n".join(sections))
        if not all_ok:
            return _reconciliation_failed()

    print(f"\nfull evaluation archived under {out}/")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bulk Disambiguation (ISCA 2006) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads").set_defaults(
        func=_cmd_list
    )

    tm = sub.add_parser("tm", help="run one TM workload under every scheme")
    tm.add_argument("app", choices=sorted(TM_KERNELS))
    tm.add_argument("--txns", type=_positive_int, default=10,
                    help="transactions per thread")
    tm.add_argument("--seed", type=int, default=42)
    tm.add_argument("--partial", action="store_true",
                    help="also run Bulk with partial rollback")
    tm.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write the full event trace as JSONL")
    tm.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="write the metrics snapshot as JSON")
    _add_run_arguments(tm)
    tm.set_defaults(func=_cmd_tm)

    tls = sub.add_parser("tls", help="run one TLS workload under every scheme")
    tls.add_argument("app", choices=sorted(TLS_APPLICATIONS))
    tls.add_argument("--tasks", type=_positive_int, default=120)
    tls.add_argument("--seed", type=int, default=42)
    tls.add_argument("--trace-out", default=None, metavar="PATH",
                    help="write the full event trace as JSONL")
    tls.add_argument("--metrics-out", default=None, metavar="PATH",
                    help="write the metrics snapshot as JSON")
    _add_run_arguments(tls)
    tls.set_defaults(func=_cmd_tls)

    checkpoint = sub.add_parser(
        "checkpoint",
        help="run one checkpoint workload: Bulk vs the exact-log baseline",
    )
    checkpoint.add_argument("app", choices=sorted(CHECKPOINT_WORKLOADS))
    checkpoint.add_argument("--epochs", type=_positive_int, default=48,
                            help="epochs per run")
    checkpoint.add_argument("--max-depth", type=_positive_int, default=3,
                            help="sweep rollback depths 1..N")
    checkpoint.add_argument("--seed", type=int, default=42)
    checkpoint.add_argument("--jobs", type=_positive_int, default=None,
                            help="worker processes for the depth sweep "
                            "(default: one per CPU)")
    checkpoint.add_argument("--cache-dir", default=None,
                            help="result cache directory (default: no cache)")
    checkpoint.add_argument("--trace-out", default=None, metavar="PATH",
                            help="write per-point trace summaries as JSONL "
                            "(enables instrumentation)")
    checkpoint.add_argument("--metrics-out", default=None, metavar="PATH",
                            help="write merged + per-point metrics as JSON "
                            "(enables instrumentation)")
    _add_run_arguments(checkpoint)
    checkpoint.set_defaults(func=_cmd_checkpoint)

    accuracy = sub.add_parser(
        "accuracy", help="the Figure 15 signature accuracy sweep"
    )
    accuracy.add_argument("--samples", type=_positive_int, default=250,
                          help="samples per application")
    accuracy.add_argument("--txns", type=_positive_int, default=6)
    accuracy.add_argument("--seed", type=int, default=7)
    accuracy.set_defaults(func=_cmd_accuracy)

    sub.add_parser(
        "fig12", help="demonstrate the Figure 12 Eager pathologies"
    ).set_defaults(func=_cmd_fig12)

    reproduce = sub.add_parser(
        "reproduce",
        help="run the full evaluation and archive tables + CSVs",
    )
    reproduce.add_argument("--out", default="results",
                           help="output directory")
    reproduce.add_argument("--tm-txns", type=_positive_int, default=10)
    reproduce.add_argument("--tls-tasks", type=_positive_int, default=120)
    reproduce.add_argument("--samples", type=_positive_int, default=200)
    reproduce.add_argument("--seed", type=int, default=42)
    reproduce.add_argument("--jobs", type=_positive_int, default=None,
                           help="worker processes for the sweeps "
                           "(default: one per CPU)")
    reproduce.add_argument("--cache-dir", default=None,
                           help="result cache directory "
                           "(default: <out>/.cache)")
    reproduce.add_argument("--no-cache", action="store_true",
                           help="recompute every grid point")
    reproduce.add_argument("--trace-out", default=None, metavar="PATH",
                           help="write per-point trace summaries as JSONL "
                           "(enables instrumentation)")
    reproduce.add_argument("--metrics-out", default=None, metavar="PATH",
                           help="write merged + per-point metrics as JSON "
                           "(enables instrumentation)")
    _add_run_arguments(reproduce)
    reproduce.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Bad user input (a malformed option value, an output path that cannot
    be written) surfaces as a :class:`~repro.errors.ConfigurationError`,
    which becomes one ``error:`` line on stderr and exit code 2.  Any
    other library error is an internal bug and keeps its traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        _check_output_paths(args)
        return args.func(args)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module execution path
    raise SystemExit(main())
