"""Tests for the exception hierarchy."""

import pickle

import pytest

from repro.errors import (
    BulkError,
    ConfigurationError,
    DeltaInexactError,
    OverflowAreaError,
    ProtocolError,
    SchemeSwapError,
    SetRestrictionError,
    SimulationError,
    TraceError,
    UnknownBackendError,
    UnknownSchemeError,
)

ALL_ERRORS = [
    ConfigurationError,
    DeltaInexactError,
    OverflowAreaError,
    ProtocolError,
    SetRestrictionError,
    SimulationError,
    TraceError,
]


class TestHierarchy:
    @pytest.mark.parametrize("error_type", ALL_ERRORS)
    def test_all_derive_from_bulk_error(self, error_type):
        assert issubclass(error_type, BulkError)

    def test_delta_inexact_is_a_configuration_error(self):
        # Callers validating configurations can catch the broader class.
        assert issubclass(DeltaInexactError, ConfigurationError)

    def test_single_except_clause_catches_everything(self):
        caught = 0
        for error_type in ALL_ERRORS:
            try:
                raise error_type("boom")
            except BulkError:
                caught += 1
        assert caught == len(ALL_ERRORS)


@pytest.mark.parametrize(
    "error",
    [
        UnknownSchemeError("checkpoint", "Nope", ["Exact", "Bulk"]),
        UnknownSchemeError("gpu", known=["tm", "tls"]),
        UnknownBackendError("cuda", ["pure", "packed"]),
        SchemeSwapError("tm", "Eager", "Bulk", "not at a commit boundary"),
    ],
    ids=["unknown-scheme", "unknown-substrate", "unknown-backend",
         "scheme-swap"],
)
def test_errors_with_their_own_init_survive_a_pickle_round_trip(error):
    """A grid point's error crosses the process-pool boundary by pickle
    and must reach the caller unchanged."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
