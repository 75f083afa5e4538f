"""The :class:`~repro.spec.RunConfig` contract, one row per run option.

Every run option is defined once, by a ``RunConfig`` field, and every
layer reads it from there: the CLI flag, the driver keyword, the grid
point knob, and the system's ``config=``.  The table below pins the
rules that make that safe for each field:

* the default value adds no grid knob, so default cache keys and the
  golden artifacts do not depend on the option existing;
* a non-default value becomes a knob that is label-visible, except
  ``sig_backend`` (a storage strategy — every backend is bit-identical);
* an invalid value raises the same typed error from every entry point,
  and the CLI turns it into one ``error:`` line, exit code 2, before it
  creates any directory.
"""

import pytest

from repro.analysis.experiments import run_tm_comparison
from repro.cli import main
from repro.errors import ConfigurationError, UnknownBackendError
from repro.runner import tm_point
from repro.spec import RunConfig

#: field -> (default, non-default options, the knobs they become)
ROWS = {
    "bus": (
        "legacy",
        {"bus": "timed:latency=2"},
        {"bus": "timed:latency=2,policy=fifo,window=0"},
    ),
    "sig_backend": ("packed", {"sig_backend": "pure"}, {"sig_backend": "pure"}),
}

#: field -> (invalid options, typed error, the same value as CLI flags)
INVALID = {
    "bus": ({"bus": "timed:latency=-3"}, ConfigurationError,
            ["--bus", "timed:latency=-3"]),
    "sig_backend": ({"sig_backend": "cuda"}, UnknownBackendError,
                    ["--sig-backend", "cuda"]),
}


def test_the_table_covers_every_field():
    from dataclasses import fields

    names = [option.name for option in fields(RunConfig)]
    assert sorted(ROWS) == sorted(INVALID) == sorted(names)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_default_value_adds_no_knob(name):
    default, _, _ = ROWS[name]
    assert RunConfig(**{name: default}).knobs() == {}
    plain = tm_point("mc", txns_per_thread=2)
    explicit = tm_point("mc", txns_per_thread=2, **{name: default})
    assert explicit.key == plain.key
    assert explicit.payload() == plain.payload()


@pytest.mark.parametrize("name", sorted(ROWS))
def test_non_default_value_becomes_a_knob(name):
    _, options, knobs = ROWS[name]
    assert RunConfig(**options).knobs() == knobs
    point = tm_point("mc", txns_per_thread=2, **options)
    assert point.payload()["knobs"] == {"txns_per_thread": 2, **knobs}
    in_label = f"{name}=" in point.key
    assert in_label == (name != "sig_backend")


@pytest.mark.parametrize("name", sorted(ROWS))
def test_none_means_the_default(name):
    default, _, _ = ROWS[name]
    assert RunConfig(**{name: None}) == RunConfig(**{name: default})
    assert RunConfig(**{name: None}).knobs() == {}
    plain = tm_point("mc", txns_per_thread=2)
    assert tm_point("mc", txns_per_thread=2, **{name: None}) == plain


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_value_raises_the_same_typed_error_everywhere(name):
    options, error, _ = INVALID[name]
    with pytest.raises(error) as direct:
        RunConfig(**options)
    message = str(direct.value)
    with pytest.raises(error) as driver:
        run_tm_comparison("mc", txns_per_thread=1, **options)
    with pytest.raises(error) as point:
        tm_point("mc", **options)
    assert str(driver.value) == str(point.value) == message


@pytest.mark.parametrize("name", sorted(INVALID))
def test_cli_reports_an_invalid_value_before_creating_anything(
    name, tmp_path, capsys
):
    options, _, flags = INVALID[name]
    with pytest.raises(ConfigurationError) as direct:
        RunConfig(**options)
    out = tmp_path / "cache"
    argv = ["checkpoint", "predictor", "--cache-dir", str(out), *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {direct.value}"]
    assert not out.exists()


def test_bus_is_stored_canonical():
    config = RunConfig(bus="timed:window=4,policy=round-robin")
    assert config.bus == "timed:latency=0,policy=round-robin,window=4"
    assert RunConfig(bus=config.bus) == config
    assert RunConfig(bus="legacy") == RunConfig()
