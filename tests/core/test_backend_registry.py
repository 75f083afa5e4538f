"""The signature-backend table — the single source of backend names.

Mirrors ``tests/spec/test_registry.py``: every advertised name resolves,
unknown lookups raise the typed error listing the alternatives, and
table order is presentation order.  On top of the scheme-table
contract, backends add *graceful degradation*: ``numpy`` without numpy
installed resolves to ``packed`` after exactly one warning per process.
"""

import sys
import warnings

import pytest

from repro.cli import main
from repro.core.backend import (
    DEFAULT_BACKEND_NAME,
    SignatureBackend,
    backend_names,
    resolve_backend,
    suppress_fallback_warnings,
)
from repro.core.backend import registry as registry_module
from repro.errors import ConfigurationError, UnknownBackendError


class TestBuiltinCatalogue:
    def test_registration_order_is_presentation_order(self):
        assert backend_names() == ["pure", "packed", "numpy"]

    def test_default_is_packed(self):
        assert DEFAULT_BACKEND_NAME == "packed"
        assert DEFAULT_BACKEND_NAME in backend_names()

    def test_every_name_resolves_to_a_backend(self):
        for name in backend_names():
            backend = resolve_backend(name)
            assert isinstance(backend, SignatureBackend)
            # Either the backend itself, or — with numpy missing —
            # the packed fallback.
            assert backend.name in {name, DEFAULT_BACKEND_NAME}

    def test_instances_are_cached(self):
        assert resolve_backend("packed") is resolve_backend("packed")
        assert resolve_backend("pure") is resolve_backend("pure")

    def test_backend_signatures_carry_backend_name(self):
        from repro.core.signature_config import default_tm_config

        for name in ("pure", "packed"):
            backend = resolve_backend(name)
            signature = backend.make_signature(default_tm_config())
            assert signature.backend_name == name


class TestUnknownLookups:
    def test_unknown_name_raises_typed_error(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve_backend("cuda")
        assert excinfo.value.name == "cuda"

    def test_error_message_lists_registered_names(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve_backend("cuda")
        message = str(excinfo.value)
        for name in backend_names():
            assert name in message
        assert tuple(backend_names()) == excinfo.value.known

    def test_unknown_backend_error_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("cuda")


@pytest.fixture
def broken_backend(monkeypatch):
    """The real ``numpy`` entry with its import forced to fail — the
    exact shape of ``--sig-backend numpy`` on a numpy-less host.
    Cached and warned state is reset so each test observes the first
    resolution.
    """
    # A None entry in sys.modules makes ``import numpy`` raise
    # ImportError; the backend module must be evicted so the factory
    # genuinely re-imports it.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(
        sys.modules, "repro.core.backend.numpy_backend", raising=False
    )
    registry_module._INSTANCES.pop("numpy", None)
    registry_module._FALLBACK_WARNED.discard("numpy")
    yield "numpy"
    registry_module._INSTANCES.pop("numpy", None)
    registry_module._FALLBACK_WARNED.discard("numpy")


class TestFallbackDegradation:
    def test_falls_back_to_packed_with_one_warning(self, broken_backend):
        with pytest.warns(RuntimeWarning, match="falling back to 'packed'"):
            backend = resolve_backend(broken_backend)
        assert backend is resolve_backend("packed")
        # Second resolution: same fallback, no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend(broken_backend) is backend

    def test_warning_goes_through_the_warn_callable(self, broken_backend):
        messages = []
        backend = resolve_backend(broken_backend, warn=messages.append)
        assert backend is resolve_backend("packed")
        assert len(messages) == 1
        assert "'numpy'" in messages[0]
        assert "'packed'" in messages[0]
        # Already warned: the callable is not invoked again.
        resolve_backend(broken_backend, warn=messages.append)
        assert len(messages) == 1


@pytest.fixture
def restore_suppression():
    """Whatever a test sets, the process-global flag is restored."""
    previous = registry_module._SUPPRESS_FALLBACK_USER_WARNING
    yield
    registry_module._SUPPRESS_FALLBACK_USER_WARNING = previous


class TestWorkerWarningSuppression:
    """Grid pool workers are fresh processes — without suppression the
    'once per process' fallback warning prints once per *worker*."""

    def test_suppression_silences_the_user_warning(
        self, broken_backend, restore_suppression
    ):
        assert suppress_fallback_warnings() is False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = resolve_backend(broken_backend)
        assert backend is resolve_backend("packed")

    def test_suppression_keeps_the_warn_callable_path(
        self, broken_backend, restore_suppression
    ):
        """A tracer's ``warn`` sink must still record the degradation
        event — only the stderr duplicate is silenced."""
        suppress_fallback_warnings()
        messages = []
        resolve_backend(broken_backend, warn=messages.append)
        assert len(messages) == 1

    def test_suppression_returns_the_previous_setting(
        self, restore_suppression
    ):
        assert suppress_fallback_warnings(True) is False
        assert suppress_fallback_warnings(False) is True
        assert suppress_fallback_warnings(False) is False

    def test_pool_workers_initialize_with_suppression(
        self, restore_suppression
    ):
        from repro.runner.grid import _warm_worker

        _warm_worker()
        assert registry_module._SUPPRESS_FALLBACK_USER_WARNING is True

    def test_parent_preresolves_grid_backends(self, monkeypatch):
        """The parent resolves every backend the grid names before the
        pool spawns, so the single warning comes from the parent."""
        from repro.runner import GridRunner, tm_point

        resolved = []
        monkeypatch.setattr(
            "repro.core.backend.resolve_backend",
            lambda name: resolved.append(name),
        )
        points = [
            tm_point("mc", sig_backend="numpy"),
            tm_point("cb", sig_backend="numpy"),
            tm_point("mc", seed=2),
        ]
        GridRunner._preresolve_backends(points)
        assert resolved == ["numpy"]


@pytest.mark.parametrize(
    "driver, app, size",
    [
        ("run_tm_comparison", "mc", {"txns_per_thread": 2}),
        ("run_tls_comparison", "gzip", {"num_tasks": 8}),
        ("run_checkpoint_comparison", "predictor", {"num_epochs": 8}),
    ],
)
def test_degraded_run_warns_once_through_its_tracer(
    broken_backend, restore_suppression, driver, app, size
):
    """Every substrate resolves its backend through the system, so an
    instrumented run reports the fallback as one trace ``warning`` event
    and never as a Python warning."""
    from repro.analysis import experiments
    from repro.obs import Observability

    suppress_fallback_warnings(False)
    obs = Observability()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        getattr(experiments, driver)(
            app, obs=obs, sig_backend=broken_backend, **size
        )
    assert obs.tracer.summary()["events"].get("warning") == 1
    assert caught == []


def _tm_stdout(sig_backend, capsys):
    """The stdout of a small ``tm`` run, which must exit 0."""
    capsys.readouterr()
    assert main(["tm", "mc", "--txns", "2", "--sig-backend", sig_backend]) == 0
    return capsys.readouterr().out


class TestNumpyUnavailable:
    """``--sig-backend numpy`` degrades on a numpy-less host."""

    def test_numpy_degrades_to_packed(self, broken_backend):
        with pytest.warns(RuntimeWarning, match="'numpy' is unavailable"):
            backend = resolve_backend("numpy")
        assert backend is resolve_backend("packed")
        assert backend.name == "packed"

    def test_degraded_runs_still_work(self, broken_backend):
        """A whole simulation requested with the numpy backend runs on
        the packed fallback and produces the default-backend results."""
        from repro.analysis.experiments import run_tm_comparison

        with pytest.warns(RuntimeWarning):
            degraded = run_tm_comparison(
                "mc", txns_per_thread=2, seed=3, sig_backend="numpy"
            )
        baseline = run_tm_comparison("mc", txns_per_thread=2, seed=3)
        assert degraded.cycles == baseline.cycles

    def test_degraded_cli_run_prints_the_packed_results(
        self, broken_backend, capsys
    ):
        """``tm --sig-backend numpy`` without numpy exits 0 after one
        fallback warning and prints the packed run's table."""
        packed = _tm_stdout("packed", capsys)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = _tm_stdout(broken_backend, capsys)
        fallbacks = [
            w for w in caught
            if issubclass(w.category, RuntimeWarning)
            and "falling back to 'packed'" in str(w.message)
        ]
        assert len(fallbacks) == 1
        assert degraded == packed

    @pytest.mark.skipif(
        resolve_backend("numpy").name != "numpy",
        reason="numpy backend unavailable",
    )
    def test_numpy_cli_run_prints_the_packed_results(self, capsys):
        assert _tm_stdout("numpy", capsys) == _tm_stdout("packed", capsys)
