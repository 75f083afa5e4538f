"""The scheme table — the single source of every scheme list.

The contract: every name a substrate advertises resolves to a fresh
scheme instance carrying that exact name, unknown lookups raise the
typed error, and table order is presentation order.
"""

import pytest

from repro.errors import ConfigurationError, UnknownSchemeError
from repro.spec import (
    SpecScheme,
    resolve_scheme,
    scheme_entries,
    scheme_names,
)


class TestBuiltinCatalogue:
    def test_registration_order_is_presentation_order(self):
        assert scheme_names("tm") == ["Eager", "Lazy", "Bulk"]
        assert scheme_names("tm", include_variants=True) == [
            "Eager", "Lazy", "Bulk", "Bulk-Partial",
        ]
        assert scheme_names("tls") == [
            "Eager", "Lazy", "Bulk", "BulkNoOverlap",
        ]
        assert scheme_names("checkpoint") == ["Exact", "Bulk"]

    @pytest.mark.parametrize("substrate", ["tm", "tls", "checkpoint"])
    def test_every_name_round_trips(self, substrate):
        for name in scheme_names(substrate, include_variants=True):
            scheme = resolve_scheme(substrate, name)
            assert isinstance(scheme, SpecScheme)
            assert scheme.name == name

    @pytest.mark.parametrize("substrate", ["tm", "tls", "checkpoint"])
    def test_resolve_builds_fresh_instances(self, substrate):
        name = scheme_names(substrate)[0]
        assert resolve_scheme(substrate, name) is not resolve_scheme(
            substrate, name
        )

    def test_entries_carry_variant(self):
        entries = {
            e.name: e for e in scheme_entries("tm", include_variants=True)
        }
        assert not entries["Bulk"].variant
        assert not entries["Bulk"].factory().partial_rollback
        assert entries["Bulk-Partial"].variant
        assert entries["Bulk-Partial"].factory().partial_rollback
        # Variants are excluded from the default listing...
        assert "Bulk-Partial" not in {e.name for e in scheme_entries("tm")}
        # ...but still resolve by direct name lookup.
        assert resolve_scheme("tm", "Bulk-Partial").name == "Bulk-Partial"

    def test_entry_lookup_matches_entries(self):
        entry = scheme_entries("checkpoint")[-1]
        assert entry.name == "Bulk"
        assert entry.factory().name == "Bulk"


class TestUnknownLookups:
    def test_unknown_substrate_raises_typed_error(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            resolve_scheme("gpu", "Bulk")
        # The message names the known substrates.
        assert "tm" in str(excinfo.value)

    def test_unknown_scheme_raises_typed_error(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            resolve_scheme("tm", "Optimistic")
        assert "Eager" in str(excinfo.value)

    def test_unknown_substrate_in_scheme_names_too(self):
        with pytest.raises(UnknownSchemeError):
            scheme_names("gpu")

    def test_unknown_scheme_error_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            resolve_scheme("tm", "Optimistic")

