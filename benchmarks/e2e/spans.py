"""Per-layer wall-clock spans, recorded from the benchmark's own files.

The traced pass wraps the public functions of every layer in a timing
wrapper; nothing under ``src/`` changes.  A span is one call of a wrapped
function.  Its *self time* is its duration minus the time covered by the
wrapped calls it made, so every traced second lands in exactly one
layer.  Spans stay in memory: per-(layer, function) aggregates plus the
raw top-level spans, written out once when the pass ends.

Wrappers are patched at the names callers look up: the defining class or
module, every subclass that overrides a named method, and every
``repro`` module global that aliases a wrapped function (``from x import
f`` binds ``f`` a second time).  Pool workers forked after installation
restore the originals, so only the parent process is traced.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import types
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Every layer, in report order.
LAYERS = (
    "workloads",
    "core.signature",
    "core.codec",
    "core.bdm",
    "cache",
    "mem",
    "bus",
    "sim",
    "spec",
    "tm",
    "tls",
    "checkpoint",
    "tm.scheme",
    "tls.scheme",
    "checkpoint.scheme",
    "analysis",
    "runner",
    "obs",
)

#: ``(layer, module, class or None, names)``.  ``names`` is a tuple of
#: attribute names, or ``"*"`` for every method the class itself defines.
#: A named method is also wrapped on each subclass that overrides it;
#: ``"*"`` does not descend, so subclass internals stay with their own
#: layer (the ``*System`` loops inherit from ``SpecSystemCore``).
TARGETS: Tuple[Tuple[str, str, Optional[str], Any], ...] = (
    ("workloads", "repro.workloads.kernels", None, ("build_tm_workload",)),
    ("workloads", "repro.workloads.tls_spec", None, ("build_tls_workload",)),
    ("workloads", "repro.checkpoint.workload", None,
     ("build_checkpoint_workload",)),
    ("core.signature", "repro.core.signature", "Signature",
     ("add", "add_many", "add_mask", "intersects", "union_update",
      "from_addresses", "copy", "clear")),
    ("core.signature", "repro.core.signature_config", "SignatureConfig",
     ("flat_mask", "flat_mask_many", "encode")),
    ("core.signature", "repro.core.backend.base", "SignatureBank",
     ("add_row", "conflict_flags", "conflict_pairs")),
    ("core.signature", "repro.core.backend.base", "SignatureArena",
     ("make_signature",)),
    ("core.codec", "repro.core.decode", "DeltaDecoder", ("decode",)),
    ("core.codec", "repro.core.rle", None, ("rle_encode", "rle_decode")),
    ("core.codec", "repro.core.expansion", None,
     ("matched_lines", "line_may_be_in", "expand_signature")),
    ("core.codec", "repro.core.backend.codec", "CodecKernels",
     ("delta_decode", "rle_encode", "rle_decode", "match_lines",
      "match_lines_many")),
    ("core.bdm", "repro.core.bdm", "BulkDisambiguationModule", "*"),
    ("core.bdm", "repro.core.disambiguation", None, ("disambiguate",)),
    ("cache", "repro.cache.cache", "Cache", "*"),
    ("mem", "repro.mem.memory", "WordMemory", "*"),
    ("mem", "repro.mem.overflow", "OverflowArea", "*"),
    ("bus", "repro.coherence.bus", "Bus", ("record", "acquire_commit")),
    ("bus", "repro.interconnect.timed", "TimedBus", "*"),
    ("sim", "repro.sim.engine", "MinClockScheduler", ("push", "pop")),
    ("spec", "repro.spec.system", "SpecSystemCore", "*"),
    ("tm", "repro.tm.system", "TmSystem", ("run",)),
    ("tls", "repro.tls.system", "TlsSystem", ("run",)),
    ("tls", "repro.tls.system", None, ("simulate_sequential",)),
    ("checkpoint", "repro.checkpoint.system", "CheckpointSystem", ("run",)),
    ("analysis", "repro.analysis.experiments", None,
     ("run_tm_comparison", "run_tls_comparison",
      "run_checkpoint_comparison")),
    ("analysis", "repro.analysis.accuracy", None,
     ("collect_tm_samples", "sweep_signature_configs",
      "false_positive_fraction", "average_compressed_bits")),
    ("analysis", "repro.analysis.report", None,
     ("render_table", "render_csv", "render_bars", "render_contention",
      "contention_rows", "bandwidth_reconciliation_rows",
      "render_bandwidth_reconciliation", "reconciliation_ok")),
    ("analysis", "repro.analysis.bandwidth", None,
     ("normalized_breakdown", "commit_bandwidth_ratio")),
    ("runner", "repro.runner.grid", "GridRunner", ("run",)),
    # The futures ``wait`` as the runner looks it up: the parent's time
    # blocked on pool workers.
    ("runner", "repro.runner.grid", None, ("wait",)),
    ("runner", "repro.runner.cache", "ResultCache", ("get", "put", "key_for")),
    ("runner", "repro.runner.cache", None, ("code_fingerprint",)),
    ("runner", "repro.runner.serialize", None,
     ("comparison_to_dict", "comparison_from_dict")),
    ("obs", "repro.obs.metrics", "MetricsRegistry", "*"),
    ("obs", "repro.obs.metrics", "Counter", "*"),
    ("obs", "repro.obs.metrics", "Histogram", "*"),
    ("obs", "repro.obs.tracer", "EventTracer", "*"),
)

#: The span whose total (not self) time is reported as ``runner.wait_s``.
WAIT_SPAN = ("runner", "wait")


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _own_methods(cls: type) -> List[str]:
    """Names of the plain, static and class methods ``cls`` defines,
    dunders excluded."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("__")
        and isinstance(value, (types.FunctionType, staticmethod, classmethod))
    ]


def _scheme_classes() -> Iterator[Tuple[str, type]]:
    """``(layer, class)`` for every class a registered scheme is built
    from, within its substrate's package."""
    from repro.spec import scheme_entries

    seen = set()
    for substrate in ("tm", "tls", "checkpoint"):
        for entry in scheme_entries(substrate, include_variants=True):
            for cls in type(entry.factory()).__mro__:
                if cls.__module__.startswith(f"repro.{substrate}.") and (
                    cls not in seen
                ):
                    seen.add(cls)
                    yield f"{substrate}.scheme", cls


class SpanRecorder:
    """Installs the layer wrappers and aggregates their spans.

    ``stats`` maps ``(layer, function)`` to ``[calls, self_s, total_s]``;
    ``top`` lists ``(layer, function, start, seconds)`` for spans opened
    with no other span open.  Recording is live between :meth:`install`
    and :meth:`stop`.
    """

    def __init__(self) -> None:
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.top: List[Tuple[str, str, float, float]] = []
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: id(original) -> (original, wrapper), for rebinding aliases.
        self._wrapped: Dict[int, Tuple[Any, Any]] = {}
        self._wrappers: set = set()
        self.recording = False

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, label: str, fn: Callable) -> Callable:
        key = (layer, label)
        entry = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        top = self.top
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.recording:
                return fn(*args, **kwargs)
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                entry[0] += 1
                entry[1] += elapsed - child
                entry[2] += elapsed
                if stack:
                    stack[-1] += elapsed
                else:
                    top.append((layer, label, start, elapsed))

        return wrapper

    def _patch(self, holder: Any, name: str, layer: str, label: str) -> None:
        raw = vars(holder)[name]
        if id(raw) in self._wrappers:
            return  # already wrapped through another table row
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(self._wrap(layer, label, raw.__func__))
        else:
            replacement = self._wrap(layer, label, raw)
        self._wrapped[id(raw)] = (raw, replacement)
        self._wrappers.add(id(replacement))
        self._patches.append((holder, name, raw))
        setattr(holder, name, replacement)

    def install(self) -> None:
        """Wrap every target, then rebind aliases, then start recording."""
        for layer, module_name, owner, names in TARGETS:
            module = importlib.import_module(module_name)
            if owner is None:
                for name in names:
                    self._patch(module, name, layer, name)
                continue
            cls = getattr(module, owner)
            if names == "*":
                for name in _own_methods(cls):
                    self._patch(cls, name, layer, f"{owner}.{name}")
                continue
            for sub in _subclasses(cls):
                for name in names:
                    if name in vars(sub):
                        self._patch(sub, name, layer, f"{sub.__name__}.{name}")
        for layer, cls in _scheme_classes():
            for name in _own_methods(cls):
                self._patch(cls, name, layer, f"{cls.__name__}.{name}")
        self._rebind_aliases()
        os.register_at_fork(after_in_child=self.uninstall)
        self.recording = True

    def _rebind_aliases(self) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                pair = self._wrapped.get(id(value))
                if pair is not None and pair[0] is value:
                    self._patches.append((module, name, value))
                    setattr(module, name, pair[1])

    def stop(self) -> None:
        """Stop recording; the wrappers stay in place but pass through."""
        self.recording = False

    def uninstall(self) -> None:
        """Restore every patched name (newest first)."""
        self.recording = False
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s"}}`` for every layer in
        :data:`LAYERS` (zero where nothing was called)."""
        totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for (layer, _), (calls, self_s, _total) in self.stats.items():
            totals[layer]["calls"] += calls
            totals[layer]["self_s"] += self_s
        return totals

    def total_seconds(self, key: Tuple[str, str]) -> float:
        entry = self.stats.get(key)
        return entry[2] if entry else 0.0

    def top_level_seconds(self) -> float:
        return sum(seconds for *_, seconds in self.top)

    def to_json(self) -> Dict[str, Any]:
        """Aggregates per (layer, function) plus the raw top-level spans."""
        return {
            "functions": [
                {"layer": layer, "function": label, "calls": int(calls),
                 "self_s": self_s, "total_s": total}
                for (layer, label), (calls, self_s, total)
                in sorted(self.stats.items())
                if calls
            ],
            "top_level": [
                {"layer": layer, "function": label, "start": start,
                 "seconds": seconds}
                for layer, label, start, seconds in self.top
            ],
        }
