"""Tests for the interconnect configuration and its spec-string grammar."""

import pytest

from repro.errors import ConfigurationError
from repro.interconnect import (
    DEFAULT_INTERCONNECT,
    InterconnectConfig,
)


class TestDefaults:
    def test_default_is_legacy_and_default(self):
        assert DEFAULT_INTERCONNECT.is_legacy
        assert DEFAULT_INTERCONNECT.spec() == "legacy"

    def test_timed_is_not_default_even_at_zero_latency(self):
        config = InterconnectConfig(model="timed")
        assert not config.is_legacy

    def test_config_is_hashable(self):
        # Grid-point knobs and frozen params dataclasses require it.
        assert hash(InterconnectConfig()) == hash(InterconnectConfig())


class TestValidation:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown bus model"):
            InterconnectConfig(model="warp")

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError, match="latency"):
            InterconnectConfig(model="timed", arbitration_latency=-1)

    def test_negative_window_rejected(self):
        with pytest.raises(ConfigurationError, match="window"):
            InterconnectConfig(model="timed", max_in_flight=-2)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="policy"):
            InterconnectConfig(model="timed", policy="coin-flip")


class TestSpecRoundTrip:
    def test_legacy_round_trips(self):
        assert InterconnectConfig.parse("legacy") == DEFAULT_INTERCONNECT

    def test_timed_round_trips(self):
        config = InterconnectConfig(
            model="timed",
            arbitration_latency=7,
            policy="round-robin",
            max_in_flight=3,
        )
        assert InterconnectConfig.parse(config.spec()) == config

    def test_bare_timed_parses_with_defaults(self):
        config = InterconnectConfig.parse("timed")
        assert config.model == "timed"
        assert config.arbitration_latency == 0
        assert config.policy == "fifo"
        assert config.max_in_flight == 0

    def test_partial_options(self):
        config = InterconnectConfig.parse("timed:latency=4")
        assert config.arbitration_latency == 4
        assert config.policy == "fifo"

    def test_unknown_model_in_spec(self):
        with pytest.raises(ConfigurationError, match="unknown bus model"):
            InterconnectConfig.parse("warp:latency=1")

    def test_legacy_takes_no_options(self):
        with pytest.raises(ConfigurationError, match="takes no options"):
            InterconnectConfig.parse("legacy:latency=1")

    def test_malformed_option(self):
        with pytest.raises(ConfigurationError, match="malformed"):
            InterconnectConfig.parse("timed:latency")

    @pytest.mark.parametrize("spec", [
        "timed:latency=1,latency=2",
        "timed:policy=fifo,window=2,policy=round-robin",
    ])
    def test_repeated_option(self, spec):
        with pytest.raises(ConfigurationError, match="repeated bus option"):
            InterconnectConfig.parse(spec)

    def test_non_integer_latency(self):
        with pytest.raises(ConfigurationError, match="integer"):
            InterconnectConfig.parse("timed:latency=fast")

    def test_unknown_option(self):
        with pytest.raises(ConfigurationError, match="unknown bus option"):
            InterconnectConfig.parse("timed:turbo=1")
