"""Hypothesis property tests pinning the signature algebra of Table 1.

Every property is checked along **both representations**:

* the *flat path* — the packed-integer storage the public operations run
  on (``to_flat_int``, single-int AND/OR), and
* the *list path* — per-field reference implementations written against
  the :attr:`Signature.fields` lists sliced from the register,
  replicating the original per-field semantics bit for bit.

The two must always agree; the catalogue-wide tests sweep every Table 8
configuration so no chunk layout escapes coverage.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import backend_names, resolve_backend
from repro.core.signature import Signature
from repro.core.signature_config import TABLE8_CONFIGS, table8_config
from repro.mem.address import Granularity

CONFIGS = list(TABLE8_CONFIGS.values())
ADDRESS_BITS = 26  # Table 8 configurations encode line addresses.

addresses = st.integers(min_value=0, max_value=(1 << ADDRESS_BITS) - 1)
address_sets = st.lists(addresses, max_size=32)
configs = st.sampled_from(CONFIGS)


def _available_backends():
    """Every registered backend that resolves to itself (a backend whose
    optional dependency is missing is exercised by the registry tests,
    not here)."""
    available = []
    for name in backend_names():
        try:
            backend = resolve_backend(name)
        except ImportError:  # pragma: no cover - no fallback configured
            continue
        if backend.name == name:
            available.append(backend)
    return available


#: All resolvable backends; every cross-backend property quantifies over
#: the full list so no storage strategy escapes the algebra pins.
ALL_BACKENDS = _available_backends()

#: Both granularities of every Table 8 configuration (the catalogue maps
#: line addresses; TLS runs the same chunk layouts over words).
BOTH_GRAIN_CONFIGS = [
    table8_config(name, granularity)
    for name in sorted(TABLE8_CONFIGS)
    for granularity in (Granularity.LINE, Granularity.WORD)
]
both_grain_configs = st.sampled_from(BOTH_GRAIN_CONFIGS)


# ----------------------------------------------------------------------
# List-path reference implementations (the original per-field semantics)
# ----------------------------------------------------------------------

def list_intersects(a: Signature, b: Signature) -> bool:
    return all(x & y for x, y in zip(a.fields, b.fields))


def list_is_empty(a: Signature) -> bool:
    return any(field == 0 for field in a.fields)


def list_contains(a: Signature, address: int) -> bool:
    return all(
        (a.fields[index] >> chunk) & 1
        for index, chunk in enumerate(a.config.encode(address))
    )


def list_flat(a: Signature) -> int:
    flat = 0
    for offset, field in zip(a.config.layout.field_offsets, a.fields):
        flat |= field << offset
    return flat


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(configs, address_sets, address_sets)
def test_union_is_homomorphic(config, set_a, set_b):
    """H(A ∪ B) == H(A) | H(B), on both representations."""
    h_a = Signature.from_addresses(config, set_a)
    h_b = Signature.from_addresses(config, set_b)
    h_union = Signature.from_addresses(config, set_a + set_b)
    joined = h_a | h_b
    assert joined == h_union
    assert joined.fields == h_union.fields
    in_place = h_a.copy()
    in_place.union_update(h_b)
    assert in_place == h_union


@settings(max_examples=40, deadline=None)
@given(configs, address_sets)
def test_membership_after_add_always_holds(config, address_set):
    """No false negatives: every inserted address is a member forever."""
    signature = Signature(config)
    for address in address_set:
        signature.add(address)
    for address in address_set:
        assert address in signature
        assert list_contains(signature, address)


@settings(max_examples=40, deadline=None)
@given(configs, address_sets, address_sets)
def test_intersects_agrees_with_intersection_emptiness(config, set_a, set_b):
    """intersects == not (A & B).is_empty(), and both paths agree."""
    h_a = Signature.from_addresses(config, set_a)
    h_b = Signature.from_addresses(config, set_b)
    fast = h_a.intersects(h_b)
    assert fast == (not (h_a & h_b).is_empty())
    assert fast == list_intersects(h_a, h_b)
    assert (h_a & h_b).is_empty() == list_is_empty(h_a & h_b)


@settings(max_examples=40, deadline=None)
@given(configs, address_sets)
def test_flat_int_round_trip(config, address_set):
    """from_flat_int(to_flat_int(s)) == s, and matches the list packing."""
    signature = Signature.from_addresses(config, address_set)
    flat = signature.to_flat_int()
    assert flat == list_flat(signature)
    rebuilt = Signature.from_flat_int(config, flat)
    assert rebuilt == signature
    assert rebuilt.fields == signature.fields


@settings(max_examples=40, deadline=None)
@given(configs, address_sets)
def test_exact_intersection_implies_signature_intersection(
    config, address_set
):
    """Superset semantics: shared addresses force an intersection."""
    if not address_set:
        return
    h_a = Signature.from_addresses(config, address_set)
    h_b = Signature.from_addresses(config, [address_set[0]])
    assert h_a.intersects(h_b)


# ----------------------------------------------------------------------
# Catalogue sweep: every Table 8 configuration, deterministically
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TABLE8_CONFIGS))
def test_catalogue_round_trip_and_path_agreement(name):
    config = TABLE8_CONFIGS[name]
    rng = random.Random(hash(name) & 0xFFFF)
    address_set = [rng.randrange(1 << ADDRESS_BITS) for _ in range(48)]
    signature = Signature.from_addresses(config, address_set)
    other = Signature.from_addresses(config, address_set[:8])

    assert Signature.from_flat_int(config, signature.to_flat_int()) == signature
    assert signature.to_flat_int() == list_flat(signature)
    assert signature.intersects(other) == list_intersects(signature, other)
    assert signature.is_empty() == list_is_empty(signature)
    for address in address_set:
        assert (address in signature) == list_contains(signature, address)
    assert signature.popcount() == sum(
        bin(field).count("1") for field in signature.fields
    )


# ----------------------------------------------------------------------
# Cross-backend agreement: every property, every backend, bit for bit
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(both_grain_configs, address_sets, address_sets)
def test_backends_agree_on_encoding_and_algebra(config, set_a, set_b):
    """pure, packed, and numpy must produce the identical wire format,
    the identical intersects/is_empty decisions, and the identical set
    operations on every input, at both granularities."""
    reference = None
    for backend in ALL_BACKENDS:
        h_a = backend.from_addresses(config, set_a)
        h_b = backend.from_addresses(config, set_b)
        observed = (
            h_a.to_flat_int(),
            h_b.to_flat_int(),
            h_a.intersects(h_b),
            h_a.is_empty(),
            h_b.is_empty(),
            (h_a & h_b).to_flat_int(),
            (h_a | h_b).to_flat_int(),
            h_a.popcount(),
        )
        if reference is None:
            reference = observed
        else:
            assert observed == reference, backend.name


@settings(max_examples=40, deadline=None)
@given(both_grain_configs, address_sets, addresses)
def test_backends_agree_on_membership(config, address_set, probe):
    """Membership answers must not depend on the storage strategy."""
    answers = {
        backend.name: probe in backend.from_addresses(config, address_set)
        for backend in ALL_BACKENDS
    }
    assert len(set(answers.values())) == 1, answers


@pytest.mark.parametrize("name", sorted(TABLE8_CONFIGS))
@pytest.mark.parametrize(
    "granularity", [Granularity.LINE, Granularity.WORD]
)
def test_backends_agree_on_edge_cases(name, granularity):
    """Empty and fully saturated registers, across the whole catalogue
    and both granularities."""
    config = table8_config(name, granularity)
    all_ones = (1 << config.layout.signature_bits) - 1
    flats, saturations = set(), set()
    for backend in ALL_BACKENDS:
        empty = backend.make_signature(config)
        assert empty.is_empty(), backend.name
        flats.add(empty.to_flat_int())
        saturated = backend.from_flat_int(config, all_ones)
        assert not saturated.is_empty(), backend.name
        assert saturated.popcount() == config.layout.signature_bits
        assert saturated.intersects(saturated), backend.name
        assert not empty.intersects(saturated), backend.name
        saturations.add(saturated.to_flat_int())
    assert flats == {0}
    assert saturations == {all_ones}


# ----------------------------------------------------------------------
# add / add_mask interleavings (the single-mutation-point pin)
# ----------------------------------------------------------------------

#: One insertion step: scalar add, a pre-encoded mask, or one mask ORed
#: over a batch.
insertion_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), addresses),
        st.tuples(st.just("add_mask"), addresses),
        st.tuples(st.just("batch_mask"), st.lists(addresses, max_size=8)),
    ),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(both_grain_configs, insertion_ops)
def test_insertion_interleavings_are_order_and_api_insensitive(config, ops):
    """Any interleaving of add/add_mask equals one from_addresses of the
    union — on every backend, and identically across backends.

    This pins the unified mutation funnel: every insertion API reduces
    to ``add_mask``, so no interleaving can observe a stale field/flat
    representation (the historic ``add`` vs ``add_mask`` inconsistency).
    """
    flat_values = set()
    for backend in ALL_BACKENDS:
        signature = backend.make_signature(config)
        every_address = []
        for op, payload in ops:
            if op == "add":
                signature.add(payload)
                every_address.append(payload)
            elif op == "add_mask":
                signature.add_mask(config.flat_mask(payload))
                every_address.append(payload)
            else:
                folded = 0
                for address in payload:
                    folded |= config.flat_mask(address)
                signature.add_mask(folded)
                every_address.extend(payload)
        at_once = backend.from_addresses(config, every_address)
        assert signature.to_flat_int() == at_once.to_flat_int(), backend.name
        assert signature == at_once
        for address in every_address:
            assert address in signature
        flat_values.add(signature.to_flat_int())
    assert len(flat_values) == 1
