"""Swap policies: when should a running system change its scheme?

The scheme registry (PR 1) made disambiguation schemes named, resolvable
objects; the hot-swap seam (:meth:`~repro.spec.system.SpecSystemCore.
swap_scheme`) makes them exchangeable at commit boundaries.  This module
supplies the *decision* layer on top: a :class:`SwapPolicy` watches the
run's contention signals — total and per-cause squash counters, bus wait
cycles — through a read-only :class:`PolicyView` and, at each commit
boundary, names the scheme the system should be running.

Three built-ins cover the space the ROADMAP asked for:

``static``
    The identity policy: never swap.  It parses to ``None`` so callers
    keep the zero-cost fast path — a static run executes byte-identically
    to a build without the policy layer at all, which is what keeps the
    golden artifacts pinned.

``threshold:squash_rate>0.2,window=64``
    One comparison per window: when the windowed rate exceeds the
    threshold, switch to the ``high`` scheme (default ``Bulk``, whose
    signatures make disambiguation cheap under contention); when it
    drops back, return to the ``low`` scheme (default: whatever the run
    started with).

``hysteresis:high=0.35,low=0.15,window=64,dwell=2``
    The threshold policy's ping-pong fix: separate up/down thresholds
    plus a dwell (minimum windows between swaps), so a workload sitting
    near one threshold does not thrash — each swap squashes in-flight
    work in the lossy direction, so thrashing is the failure mode that
    matters.

The grammar is ``name`` or ``name:key=value,key=value,...`` (the
threshold policy's first clause may be ``metric>value``).  Unknown
policy names, metrics, and malformed clauses raise
:class:`~repro.errors.ConfigurationError` — the CLI surfaces it before
any simulation runs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError

#: Metric names a policy clause may watch, mapped to the
#: :class:`PolicyView` accessor providing the cumulative count.  Rates
#: are computed per committed unit over the policy's window.
_METRICS = ("squash_rate", "false_positive_rate", "bus_wait_per_commit")


class PolicyView:
    """A read-only window onto one running system's contention signals.

    Policies see *only* this object — never the system — so a policy
    cannot mutate simulator state.  Everything here reads the counters
    the substrates maintain unconditionally (``stats.squashes``,
    ``stats.commits``), so policies work with or without an attached
    :class:`~repro.obs.Observability` bundle; the per-cause breakdown
    additionally consults the metrics registry when one is present.
    """

    __slots__ = ("_system",)

    def __init__(self, system: Any) -> None:
        self._system = system

    @property
    def commits(self) -> int:
        """Units committed so far (transactions / tasks / checkpoints)."""
        return self._system.stats.commits

    @property
    def squashes(self) -> int:
        """Total squashes so far, every cause included."""
        return self._system.stats.squashes

    @property
    def false_positive_squashes(self) -> int:
        """Squashes caused by signature aliasing (PR-2 per-cause split)."""
        return self._system.stats.false_positive_squashes

    @property
    def bus_wait_cycles(self) -> int:
        """Cycles units spent waiting for the bus (timed model; else 0)."""
        return getattr(self._system.bus, "wait_cycles", 0)


def _cumulative(view: PolicyView, metric: str) -> int:
    """The cumulative counter behind one supported rate metric."""
    if metric == "squash_rate":
        return view.squashes
    if metric == "false_positive_rate":
        return view.false_positive_squashes
    if metric == "bus_wait_per_commit":
        return view.bus_wait_cycles
    raise ConfigurationError(
        f"unknown swap-policy metric {metric!r} "
        f"(supported: {', '.join(_METRICS)})"
    )


def _parse_clauses(text: str, policy: str) -> Dict[str, str]:
    """``key=value,key=value`` → dict, with typed errors."""
    clauses: Dict[str, str] = {}
    if not text:
        return clauses
    for clause in text.split(","):
        key, sep, value = clause.partition("=")
        if not sep or not key or not value:
            raise ConfigurationError(
                f"malformed {policy} policy clause {clause!r} "
                "(expected key=value)"
            )
        if key in clauses:
            raise ConfigurationError(
                f"duplicate {policy} policy clause {key!r}"
            )
        clauses[key] = value
    return clauses


def _parse_number(value: str, key: str, policy: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigurationError(
            f"{policy} policy {key}={value!r} is not a number"
        ) from None


def _parse_window(value: str, policy: str) -> int:
    try:
        window = int(value)
    except ValueError:
        raise ConfigurationError(
            f"{policy} policy window={value!r} is not an integer"
        ) from None
    if window < 1:
        raise ConfigurationError(
            f"{policy} policy window must be >= 1, got {window}"
        )
    return window


class SwapPolicy:
    """The decision protocol: one call per commit boundary.

    Subclasses implement :meth:`decide`; instances hold per-run state
    (window anchors, dwell counters) and therefore must be built fresh
    per system — :func:`parse_policy` is called once per run, never
    shared.
    """

    #: The canonical spec string this instance was parsed from; feeds
    #: cache keys and trace events.
    spec: str = "static"

    def decide(
        self, view: PolicyView, current: str, clock: int
    ) -> Optional[str]:
        """The scheme the system should run, or ``None`` to stay put.

        ``view`` is the run's :class:`PolicyView`; ``current`` the name
        of the scheme currently resident; ``clock`` the commit-boundary
        time.  Returning ``current`` is equivalent to ``None``.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.spec!r})"


class ThresholdPolicy(SwapPolicy):
    """Swap on a windowed rate crossing a single threshold."""

    def __init__(
        self,
        metric: str = "squash_rate",
        threshold: float = 0.2,
        window: int = 64,
        high: str = "Bulk",
        low: Optional[str] = None,
        spec: Optional[str] = None,
    ) -> None:
        if metric not in _METRICS:
            raise ConfigurationError(
                f"unknown swap-policy metric {metric!r} "
                f"(supported: {', '.join(_METRICS)})"
            )
        self.metric = metric
        self.threshold = threshold
        self.window = window
        self.high = high
        self.low = low
        self.spec = spec or (
            f"threshold:{metric}>{threshold:g},window={window}"
        )
        self._initial: Optional[str] = None
        self._anchor: Optional[Tuple[int, int]] = None

    @classmethod
    def parse(cls, text: str) -> "ThresholdPolicy":
        """Parse ``squash_rate>0.2,window=64[,high=..][,low=..]``."""
        metric, threshold = "squash_rate", 0.2
        clauses = text.split(",") if text else []
        if clauses and ">" in clauses[0]:
            head, _, value = clauses.pop(0).partition(">")
            metric = head.strip()
            threshold = _parse_number(value, metric, "threshold")
        options = _parse_clauses(",".join(clauses), "threshold")
        window = _parse_window(options.pop("window", "64"), "threshold")
        high = options.pop("high", "Bulk")
        low = options.pop("low", None)
        if options:
            unknown = ", ".join(sorted(options))
            raise ConfigurationError(
                f"unknown threshold policy clause(s): {unknown}"
            )
        spec = f"threshold:{text}" if text else "threshold"
        return cls(metric=metric, threshold=threshold, window=window,
                   high=high, low=low, spec=spec)

    def decide(
        self, view: PolicyView, current: str, clock: int
    ) -> Optional[str]:
        if self._initial is None:
            self._initial = current
        commits = view.commits
        counter = _cumulative(view, self.metric)
        if self._anchor is None:
            self._anchor = (commits, counter)
            return None
        seen = commits - self._anchor[0]
        if seen < self.window:
            return None
        rate = (counter - self._anchor[1]) / seen
        self._anchor = (commits, counter)
        target = self.high if rate > self.threshold else (
            self.low or self._initial
        )
        return None if target == current else target


class HysteresisPolicy(SwapPolicy):
    """Two thresholds plus a dwell, so borderline workloads don't thrash."""

    def __init__(
        self,
        metric: str = "squash_rate",
        high_threshold: float = 0.35,
        low_threshold: float = 0.15,
        window: int = 64,
        dwell: int = 2,
        to: str = "Bulk",
        fallback: Optional[str] = None,
        spec: Optional[str] = None,
    ) -> None:
        if metric not in _METRICS:
            raise ConfigurationError(
                f"unknown swap-policy metric {metric!r} "
                f"(supported: {', '.join(_METRICS)})"
            )
        if low_threshold > high_threshold:
            raise ConfigurationError(
                f"hysteresis policy needs low <= high, got "
                f"low={low_threshold:g} high={high_threshold:g}"
            )
        if dwell < 0:
            raise ConfigurationError(
                f"hysteresis policy dwell must be >= 0, got {dwell}"
            )
        self.metric = metric
        self.high_threshold = high_threshold
        self.low_threshold = low_threshold
        self.window = window
        self.dwell = dwell
        self.to = to
        self.fallback = fallback
        self.spec = spec or (
            f"hysteresis:high={high_threshold:g},low={low_threshold:g},"
            f"window={window},dwell={dwell}"
        )
        self._initial: Optional[str] = None
        self._anchor: Optional[Tuple[int, int]] = None
        self._windows_since_swap = 0

    @classmethod
    def parse(cls, text: str) -> "HysteresisPolicy":
        """Parse ``high=0.35,low=0.15,window=64,dwell=2[,to=..][,metric=..]``."""
        options = _parse_clauses(text, "hysteresis")
        high = _parse_number(options.pop("high", "0.35"), "high", "hysteresis")
        low = _parse_number(options.pop("low", "0.15"), "low", "hysteresis")
        window = _parse_window(options.pop("window", "64"), "hysteresis")
        try:
            dwell = int(options.pop("dwell", "2"))
        except ValueError:
            raise ConfigurationError(
                "hysteresis policy dwell is not an integer"
            ) from None
        to = options.pop("to", "Bulk")
        fallback = options.pop("fallback", None)
        metric = options.pop("metric", "squash_rate")
        if options:
            unknown = ", ".join(sorted(options))
            raise ConfigurationError(
                f"unknown hysteresis policy clause(s): {unknown}"
            )
        spec = f"hysteresis:{text}" if text else "hysteresis"
        return cls(metric=metric, high_threshold=high, low_threshold=low,
                   window=window, dwell=dwell, to=to, fallback=fallback,
                   spec=spec)

    def decide(
        self, view: PolicyView, current: str, clock: int
    ) -> Optional[str]:
        if self._initial is None:
            self._initial = current
        commits = view.commits
        counter = _cumulative(view, self.metric)
        if self._anchor is None:
            self._anchor = (commits, counter)
            return None
        seen = commits - self._anchor[0]
        if seen < self.window:
            return None
        rate = (counter - self._anchor[1]) / seen
        self._anchor = (commits, counter)
        self._windows_since_swap += 1
        if self._windows_since_swap <= self.dwell:
            return None
        if current != self.to and rate > self.high_threshold:
            self._windows_since_swap = 0
            return self.to
        if current == self.to and rate < self.low_threshold:
            self._windows_since_swap = 0
            return self.fallback or self._initial
        return None


def parse_policy(spec: Optional[str]) -> Optional[SwapPolicy]:
    """A fresh policy instance for ``spec``, or ``None`` for static.

    ``None`` and ``"static"`` both mean "no policy" — the caller keeps
    the fast path where commit boundaries pay nothing.  Everything else
    is ``name`` or ``name:clauses``; unknown names raise
    :class:`~repro.errors.ConfigurationError`.
    """
    if spec is None:
        return None
    text = spec.strip()
    name, _, rest = text.partition(":")
    if name == "static":
        if rest:
            raise ConfigurationError(
                f"the static policy takes no parameters, got {rest!r}"
            )
        return None
    if name == "threshold":
        return ThresholdPolicy.parse(rest)
    if name == "hysteresis":
        return HysteresisPolicy.parse(rest)
    raise ConfigurationError(
        f"unknown swap policy {name!r} "
        "(known: static, threshold, hysteresis)"
    )
