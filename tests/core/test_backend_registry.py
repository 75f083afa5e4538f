"""The signature-backend registry — the single source of backend names.

Mirrors ``tests/spec/test_registry.py``: every advertised name resolves,
unknown lookups raise the typed error listing the alternatives, and
registration order is presentation order.  On top of the scheme-registry
contract, backends add *graceful degradation*: a backend whose optional
dependency is missing resolves to its declared fallback after exactly
one warning per process.
"""

import sys
import warnings

import pytest

from repro.core.backend import (
    DEFAULT_BACKEND_NAME,
    SignatureBackend,
    backend_entry,
    backend_names,
    register_backend,
    resolve_backend,
    suppress_fallback_warnings,
    unregister_backend,
)
from repro.core.backend import registry as registry_module
from repro.core.backend.base import PackedSignatureBackend
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
            # Either the backend itself, or — with its optional
            # dependency missing — its registered fallback.
            entry = backend_entry(name)
            assert backend.name in {name, entry.fallback}

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
            backend_entry("cuda")
        message = str(excinfo.value)
        for name in backend_names():
            assert name in message
        assert tuple(backend_names()) == excinfo.value.known

    def test_unknown_backend_error_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("cuda")

    def test_unregister_unknown_raises_too(self):
        with pytest.raises(UnknownBackendError):
            unregister_backend("cuda")


class TestDynamicRegistration:
    def test_register_then_unregister(self):
        register_backend("toy", PackedSignatureBackend)
        try:
            assert "toy" in backend_names()
            assert isinstance(resolve_backend("toy"), PackedSignatureBackend)
        finally:
            unregister_backend("toy")
        assert "toy" not in backend_names()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("packed", PackedSignatureBackend)

    def test_unregister_drops_cached_instance(self):
        register_backend("toy", PackedSignatureBackend)
        first = resolve_backend("toy")
        unregister_backend("toy")
        register_backend("toy", PackedSignatureBackend)
        try:
            assert resolve_backend("toy") is not first
        finally:
            unregister_backend("toy")


@pytest.fixture
def broken_backend():
    """A registered backend whose factory raises ImportError, with the
    packed fallback — the exact shape of ``numpy`` on a numpy-less host.
    Warned-state is reset so each test observes the first resolution.
    """

    def factory():
        raise ImportError("No module named 'accelerator'")

    register_backend("broken", factory, fallback="packed")
    registry_module._FALLBACK_WARNED.discard("broken")
    try:
        yield "broken"
    finally:
        unregister_backend("broken")
        registry_module._FALLBACK_WARNED.discard("broken")


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
        assert "'broken'" in messages[0]
        assert "'packed'" in messages[0]
        # Already warned: the callable is not invoked again.
        resolve_backend(broken_backend, warn=messages.append)
        assert len(messages) == 1

    def test_no_fallback_reraises_the_import_error(self):
        def factory():
            raise ImportError("nope")

        register_backend("hard", factory)
        try:
            with pytest.raises(ImportError):
                resolve_backend("hard")
        finally:
            unregister_backend("hard")


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


class TestNumpyUnavailable:
    """The real ``numpy`` entry, with the import forced to fail —
    proving ``--sig-backend numpy`` degrades on a numpy-less host."""

    @pytest.fixture
    def numpy_missing(self, monkeypatch):
        # A None entry in sys.modules makes ``import numpy`` raise
        # ImportError; the backend module must be evicted so the factory
        # genuinely re-imports it.
        monkeypatch.setitem(sys.modules, "numpy", None)
        monkeypatch.delitem(
            sys.modules, "repro.core.backend.numpy_backend", raising=False
        )
        registry_module._INSTANCES.pop("numpy", None)
        registry_module._FALLBACK_WARNED.discard("numpy")
        yield
        registry_module._INSTANCES.pop("numpy", None)
        registry_module._FALLBACK_WARNED.discard("numpy")

    def test_numpy_degrades_to_packed(self, numpy_missing):
        with pytest.warns(RuntimeWarning, match="'numpy' is unavailable"):
            backend = resolve_backend("numpy")
        assert backend is resolve_backend("packed")
        assert backend.name == "packed"

    def test_degraded_runs_still_work(self, numpy_missing):
        """A whole simulation requested with the numpy backend runs on
        the packed fallback and produces the default-backend results."""
        from repro.analysis.experiments import run_tm_comparison

        with pytest.warns(RuntimeWarning):
            degraded = run_tm_comparison(
                "mc", txns_per_thread=2, seed=3, sig_backend="numpy"
            )
        baseline = run_tm_comparison("mc", txns_per_thread=2, seed=3)
        assert degraded.cycles == baseline.cycles


class TestDeterministicOrdering:
    """`backend_names()` order depends only on what is registered."""

    def test_shuffled_registration_lists_canonically(self):
        # Reverse-alphabetical insertion; listing must still come out
        # ranked built-ins first, then dynamics sorted by name.
        for name in ("zz-toy", "aa-toy"):
            register_backend(name, PackedSignatureBackend)
        try:
            assert backend_names() == [
                "pure", "packed", "numpy", "aa-toy", "zz-toy",
            ]
        finally:
            for name in ("zz-toy", "aa-toy"):
                unregister_backend(name)
        assert backend_names() == ["pure", "packed", "numpy"]
