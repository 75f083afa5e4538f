"""Configuration of the interconnect timing model.

An :class:`InterconnectConfig` selects between the two bus models and
carries the timed model's knobs.  It round-trips through one canonical
*spec string* — the ``bus`` field of :class:`~repro.spec.RunConfig`,
and so the CLI's ``--bus`` and the runner's JSON grid-point knob:

``"legacy"``
    The synchronous broadcast bus (:class:`~repro.coherence.bus.Bus`):
    commits serialise with zero arbitration latency, non-commit traffic
    is pure accounting.  This is the default and reproduces the golden
    artifacts byte-identically.
``"timed"`` / ``"timed:latency=4,policy=round-robin,window=8"``
    The queued, pipelined model
    (:class:`~repro.interconnect.timed.TimedBus`): a request/grant
    arbitration stage of ``latency`` cycles in front of the serialised
    commit transfer, a bounded-occupancy transfer pipeline for
    non-commit traffic (``window`` in-flight messages; 0 = unbounded),
    and an arbitration ``policy`` ordering simultaneously pending
    requests.

The spec-string grammar is deliberately tiny: ``<model>`` optionally
followed by ``:`` and comma-separated ``key=value`` pairs from
``latency`` (int >= 0), ``policy`` (a registered arbitration policy
name), and ``window`` (int >= 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: The two bus models.
BUS_MODELS = ("legacy", "timed")


@dataclass(frozen=True)
class InterconnectConfig:
    """Which bus model to build, and the timed model's knobs."""

    #: ``"legacy"`` (synchronous broadcast) or ``"timed"`` (queued).
    model: str = "legacy"
    #: Request-to-grant cycles of the arbitration stage (timed only).
    arbitration_latency: int = 0
    #: Arbitration policy ordering simultaneously pending requests.
    policy: str = "fifo"
    #: Bounded occupancy of the transfer pipeline: how many non-commit
    #: messages may be in flight at once (0 = unbounded).
    max_in_flight: int = 0

    def __post_init__(self) -> None:
        from repro.interconnect.arbiter import POLICIES

        if self.model not in BUS_MODELS:
            raise ConfigurationError(
                f"unknown bus model {self.model!r}; known: "
                + ", ".join(BUS_MODELS)
            )
        if self.arbitration_latency < 0:
            raise ConfigurationError(
                f"arbitration latency must be >= 0, got "
                f"{self.arbitration_latency}"
            )
        if self.max_in_flight < 0:
            raise ConfigurationError(
                f"max in-flight window must be >= 0, got {self.max_in_flight}"
            )
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown arbitration policy {self.policy!r}; known: "
                + ", ".join(sorted(POLICIES))
            )

    @property
    def is_legacy(self) -> bool:
        """Whether this configuration builds the synchronous bus."""
        return self.model == "legacy"

    @property
    def is_default(self) -> bool:
        """Whether this is the byte-identical default configuration."""
        return self == DEFAULT_INTERCONNECT

    def spec(self) -> str:
        """The canonical spec string (``parse`` round-trips it)."""
        if self.is_legacy:
            return "legacy"
        return (
            f"timed:latency={self.arbitration_latency},"
            f"policy={self.policy},window={self.max_in_flight}"
        )

    @classmethod
    def parse(cls, text: str) -> "InterconnectConfig":
        """Build a configuration from a spec string."""
        model, _, options = text.strip().partition(":")
        if model not in BUS_MODELS:
            raise ConfigurationError(
                f"unknown bus model {model!r} in spec {text!r}; known: "
                + ", ".join(BUS_MODELS)
            )
        fields = {"model": model}
        if options:
            if model == "legacy":
                raise ConfigurationError(
                    f"the legacy bus model takes no options, got {text!r}"
                )
            for item in options.split(","):
                key, separator, value = item.partition("=")
                if not separator:
                    raise ConfigurationError(
                        f"malformed bus option {item!r} in spec {text!r} "
                        "(expected key=value)"
                    )
                if key == "latency":
                    fields["arbitration_latency"] = _parse_int(key, value)
                elif key == "window":
                    fields["max_in_flight"] = _parse_int(key, value)
                elif key == "policy":
                    fields["policy"] = value
                else:
                    raise ConfigurationError(
                        f"unknown bus option {key!r} in spec {text!r}; "
                        "known: latency, policy, window"
                    )
        return cls(**fields)


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(
            f"bus option {key!r} needs an integer, got {value!r}"
        ) from None


#: The zero-latency, unbounded, synchronous default — byte-identical to
#: the pre-interconnect bus model.
DEFAULT_INTERCONNECT = InterconnectConfig()
