"""JSON bench harness: core-op throughput + reproduce wall-times.

Unlike the pytest-benchmark suites (which print tables), this script
writes one machine-readable trajectory point, ``BENCH_core.json`` at the
repo root, so performance can be tracked commit over commit and asserted
in CI:

* **ops/sec** for the primitive hot operations — signature address
  insertion (single and batched), delta decode (cold and memoised), and
  RLE commit-packet encoding;
* **per-backend batch-insert throughput** for every resolvable
  signature backend (``--sig-backend``), with the pinned
  ``numpy_vs_packed_add_many`` speedup (acceptance floor: >=5x);
* **per-backend codec kernel throughput** — cold delta decode, RLE
  commit-packet encoding, and batched cache expansion on a dense
  commit-sized signature — with the pinned
  ``delta_decode_numpy_vs_pure`` speedup (acceptance floor: >=10x);
* **wall-time** for a small TM, TLS, and checkpoint reproduce (the TM
  and TLS points are the pair the pre-PR baseline pinned; their sum
  yields the recorded end-to-end speedup);
* **memo statistics** gathered after a timed-bus TM reproduce via
  :func:`repro.obs.record_memo_metrics` (the CI perf-smoke job asserts
  the hit counters are non-zero).

Usage::

    python benchmarks/bench_to_json.py            # full run (default)
    python benchmarks/bench_to_json.py --quick    # CI smoke sizing
    python benchmarks/bench_to_json.py --output /tmp/bench.json

The baseline block records the pre-optimisation wall-times measured on
the machine that produced the committed artifact; re-running on other
hardware refreshes ``measured`` but the committed baseline stays what it
was, so the recorded speedup is always a same-machine comparison.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_core.json"

#: Pre-PR wall-times (seconds, best of 3) of the exact reproduce calls
#: timed below, measured on the same machine as the committed artifact
#: immediately before the fast paths landed.
BASELINE = {
    "tm_seconds": 0.7180,
    "tls_seconds": 0.0906,
    "total_seconds": 0.8086,
    "workload": (
        "run_tm_comparison('cb', txns_per_thread=4, seed=11, "
        "include_partial=True) + run_tls_comparison('bzip2', "
        "num_tasks=40, seed=11)"
    ),
}


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def _ops_per_sec(fn, ops: int, repeats: int) -> float:
    return ops / _best_of(fn, repeats)


def bench_core_ops(quick: bool) -> dict:
    """Throughput of the primitive operations, ops/sec."""
    import random

    from repro.core.decode import CachedDecoder, DeltaDecoder
    from repro.core.rle import rle_encode
    from repro.core.signature import Signature
    from repro.core.signature_config import default_tm_config

    config = default_tm_config()
    rng = random.Random(5)
    n = 2_000 if quick else 20_000
    repeats = 1 if quick else 3
    addresses = [rng.randrange(1 << 26) for _ in range(n)]

    def add_loop():
        signature = Signature(config)
        add = signature.add
        for address in addresses:
            add(address)

    def add_many_batch():
        Signature(config).add_many(addresses)

    filled = Signature(config)
    filled.add_many(addresses[:256])
    decode_n = 200 if quick else 2_000
    cold = DeltaDecoder(config, num_sets=64)
    warm = CachedDecoder(config, num_sets=64)
    warm.decode(filled)  # prime the memo so the loop times the hit path

    results = {
        "signature_add": _ops_per_sec(add_loop, n, repeats),
        "signature_add_many": _ops_per_sec(add_many_batch, n, repeats),
        "delta_decode_cold": _ops_per_sec(
            lambda: [cold.decode(filled) for _ in range(decode_n)],
            decode_n,
            repeats,
        ),
        "delta_decode_memo": _ops_per_sec(
            lambda: [warm.decode(filled) for _ in range(decode_n)],
            decode_n,
            repeats,
        ),
        "rle_encode": _ops_per_sec(
            lambda: [rle_encode(filled) for _ in range(decode_n)],
            decode_n,
            repeats,
        ),
    }
    return {name: round(value, 1) for name, value in results.items()}


def bench_backend_ops(quick: bool) -> dict:
    """Per-backend batch-insert throughput, ops/sec, plus the pinned
    numpy-vs-packed speedup on ``add_many`` (the acceptance floor is
    >=5x on the full sizing).

    Backends that fall back (numpy not installed) are reported under the
    backend they resolved to, and the speedup is omitted.
    """
    import random

    from repro.core.backend import backend_names, resolve_backend
    from repro.core.signature_config import default_tm_config

    config = default_tm_config()
    rng = random.Random(5)
    n = 2_000 if quick else 20_000
    repeats = 1 if quick else 3
    addresses = [rng.randrange(1 << 26) for _ in range(n)]

    throughput = {}
    for name in backend_names():
        backend = resolve_backend(name)
        if backend.name != name:
            continue  # fell back; the fallback itself is measured

        def add_many_batch(backend=backend):
            signature = backend.make_signature(config)
            signature.add_many(addresses)
            # Force any write-combining buffer to materialise so the
            # timing covers the full encode, not a deferred promise.
            signature.to_flat_int()

        throughput[name] = round(
            _ops_per_sec(add_many_batch, n, repeats), 1
        )

    result = {"add_many_ops_per_sec": throughput}
    if "numpy" in throughput and "packed" in throughput:
        result["numpy_vs_packed_add_many"] = round(
            throughput["numpy"] / throughput["packed"], 2
        )
    return result


def bench_codec_ops(quick: bool) -> dict:
    """Per-backend codec *kernel* throughput, ops/sec.

    Three rows per resolvable backend — cold delta decode, RLE
    commit-packet encode, and batched cache expansion — timed through
    the same objects production code dispatches on (the signature's
    attached :class:`~repro.core.backend.codec.CodecKernels`), with the
    advisory memos out of the measured path so the numbers compare the
    kernels themselves.  The ``packed`` rows are the scalar fallback;
    the pinned ``delta_decode_numpy_vs_pure`` speedup (acceptance
    floor: >=10x on the full sizing) is numpy's cold decode against it.
    """
    import random

    from repro.cache.cache import Cache
    from repro.cache.geometry import TM_L1_GEOMETRY
    from repro.core.backend import backend_names, resolve_backend
    from repro.core.decode import DeltaDecoder
    from repro.core.expansion import matched_lines
    from repro.core.rle import rle_encode_scalar
    from repro.core.signature_config import default_tm_config

    config = default_tm_config()
    rng = random.Random(7)
    ops = 30 if quick else 300
    repeats = 1 if quick else 3
    # A dense commit-sized footprint: scalar decode/encode walk every
    # set bit, so density is what separates the kernels.
    addresses = [rng.randrange(1 << 26) for _ in range(2048)]

    # A cache pre-filled from the same address pool, so the expansion
    # row has real resident candidates to membership-test.
    cache = Cache(TM_L1_GEOMETRY)
    for line_address in addresses:
        if cache.lookup(line_address, touch=False) is None:
            cache.fill(line_address, [0] * 16)
    decoder = DeltaDecoder(config, num_sets=TM_L1_GEOMETRY.num_sets)

    per_backend = {}
    for name in backend_names():
        backend = resolve_backend(name)
        if backend.name != name:
            continue  # fell back; the fallback itself is measured
        signature = backend.make_signature(config)
        signature.add_many(addresses)
        signature.to_flat_int()
        codec = type(signature)._codec
        # The kernel rle_encode() would run on a memo miss.
        encode_kernel = (
            rle_encode_scalar
            if codec is None
            else codec.rle_encode
        )

        def decode_loop(signature=signature):
            for _ in range(ops):
                decoder.decode(signature)

        def rle_loop(signature=signature, encode_kernel=encode_kernel):
            for _ in range(ops):
                encode_kernel(signature)

        def expansion_loop(signature=signature):
            for _ in range(ops):
                matched_lines(signature, cache, decoder)

        # One warm pass each: the first vectorised call pays one-time
        # costs (gather-table build, numpy kernel initialisation) that
        # belong to setup, not throughput.
        decoder.decode(signature)
        encode_kernel(signature)
        matched_lines(signature, cache, decoder)

        per_backend[name] = {
            "delta_decode_ops_per_sec": round(
                _ops_per_sec(decode_loop, ops, repeats), 1
            ),
            "rle_encode_ops_per_sec": round(
                _ops_per_sec(rle_loop, ops, repeats), 1
            ),
            "expansion_ops_per_sec": round(
                _ops_per_sec(expansion_loop, ops, repeats), 1
            ),
        }

    result = {"per_backend": per_backend}
    if "numpy" in per_backend and "packed" in per_backend:
        for row, pin in (
            ("delta_decode_ops_per_sec", "delta_decode_numpy_vs_pure"),
            ("rle_encode_ops_per_sec", "rle_encode_numpy_vs_pure"),
            ("expansion_ops_per_sec", "expansion_numpy_vs_pure"),
        ):
            result[pin] = round(
                per_backend["numpy"][row] / per_backend["packed"][row], 2
            )
    return result


def bench_reproduce(quick: bool) -> dict:
    """Wall-times of small end-to-end reproduces (seconds)."""
    from repro.analysis.experiments import (
        run_checkpoint_comparison,
        run_tls_comparison,
        run_tm_comparison,
    )

    # Best of 5 on the full sizing: these wall-times pin the recorded
    # speedup_vs_baseline, so the measurement must shrug off transient
    # background load (the baseline was likewise a best-of measurement
    # on an otherwise idle machine).
    repeats = 1 if quick else 5
    if quick:
        tm = _best_of(
            lambda: run_tm_comparison("cb", txns_per_thread=2, seed=11),
            repeats,
        )
        tls = _best_of(
            lambda: run_tls_comparison("bzip2", num_tasks=16, seed=11),
            repeats,
        )
        checkpoint = _best_of(
            lambda: run_checkpoint_comparison("predictor", num_epochs=16, seed=11),
            repeats,
        )
        return {
            "sizing": "quick",
            "tm_seconds": round(tm, 4),
            "tls_seconds": round(tls, 4),
            "checkpoint_seconds": round(checkpoint, 4),
        }
    # Full sizing: the exact pair of calls the pre-PR baseline timed.
    tm = _best_of(
        lambda: run_tm_comparison(
            "cb", txns_per_thread=4, seed=11, include_partial=True
        ),
        repeats,
    )
    tls = _best_of(
        lambda: run_tls_comparison("bzip2", num_tasks=40, seed=11),
        repeats,
    )
    checkpoint = _best_of(
        lambda: run_checkpoint_comparison("predictor", num_epochs=32, seed=11),
        repeats,
    )
    total = tm + tls
    return {
        "sizing": "full",
        "tm_seconds": round(tm, 4),
        "tls_seconds": round(tls, 4),
        "checkpoint_seconds": round(checkpoint, 4),
        "total_seconds": round(total, 4),
        "baseline": BASELINE,
        "speedup_vs_baseline": round(BASELINE["total_seconds"] / total, 3),
    }


def bench_timed_bus_memo(quick: bool) -> dict:
    """Memo counters after a timed-bus TM reproduce.

    Runs with observability on (the goldens' configuration) so the run
    exercises both the traced paths and the memos, then materialises the
    cache counters through the explicit :func:`record_memo_metrics`
    surface.  CI asserts the hit counters are positive.
    """
    from repro.analysis.experiments import run_tm_comparison
    from repro.core.memo import reset_memo_stats
    from repro.obs import Observability, record_memo_metrics

    reset_memo_stats()
    obs = Observability()
    run_tm_comparison(
        "cb",
        txns_per_thread=2 if quick else 4,
        seed=11,
        obs=obs,
        bus="timed:latency=4,policy=round-robin",
    )
    registry = Observability().metrics
    stats = record_memo_metrics(registry)
    return {
        label: {
            "hits": aggregate["hits"],
            "misses": aggregate["misses"],
            "evictions": aggregate["evictions"],
            "size": aggregate["size"],
        }
        for label, aggregate in sorted(stats.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI sizing: smaller workloads, single repeat, no baseline "
        "speedup (wall-times are not comparable across machines)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help=f"where to write the JSON (default: {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    payload = {
        "schema": 1,
        "quick": args.quick,
        "python": platform.python_version(),
        "core_ops_per_sec": bench_core_ops(args.quick),
        "signature_backends": bench_backend_ops(args.quick),
        "codec_kernels": bench_codec_ops(args.quick),
        "reproduce": bench_reproduce(args.quick),
        "timed_bus_memo": bench_timed_bus_memo(args.quick),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not args.quick:
        reproduce = payload["reproduce"]
        print(
            f"tm+tls total {reproduce['total_seconds']}s vs baseline "
            f"{BASELINE['total_seconds']}s -> "
            f"{reproduce['speedup_vs_baseline']}x"
        )
    backends = payload["signature_backends"]
    speedup = backends.get("numpy_vs_packed_add_many")
    if speedup is not None:
        print(f"add_many numpy vs packed: {speedup}x")
    codec = payload["codec_kernels"]
    decode_speedup = codec.get("delta_decode_numpy_vs_pure")
    if decode_speedup is not None:
        print(
            f"codec kernels numpy vs pure: delta_decode {decode_speedup}x, "
            f"rle_encode {codec['rle_encode_numpy_vs_pure']}x, "
            f"expansion {codec['expansion_numpy_vs_pure']}x"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
