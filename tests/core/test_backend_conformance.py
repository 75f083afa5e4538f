"""Cross-backend conformance: one battery, every registered backend.

The contract of :mod:`repro.core.backend` is that every backend is a
*storage strategy*, never a semantics change: each operation must be
bit-identical to the packed reference under every Table 8 configuration
and both address granularities.  The battery below parametrises over
:func:`repro.core.backend.backend_names`, so a newly registered backend
is conformance tested by registration alone — no test edits needed.

Backends whose optional dependency is missing are skipped here (their
*fallback* behaviour is covered by ``test_backend_registry.py``).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.backend import backend_names, resolve_backend
from repro.core.backend.base import PackedSignatureBackend
from repro.core.signature import Signature
from repro.core.signature_config import (
    TABLE8_CONFIGS,
    default_tls_config,
    default_tm_config,
    table8_config,
)
from repro.mem.address import Granularity

ADDRESS_BITS = 26

#: The packed reference every backend must agree with, bit for bit.
REFERENCE = PackedSignatureBackend()


def _available(name):
    """Skip-aware parametrisation: a backend whose import fails is
    skipped (fallback resolution is a registry test, not conformance)."""
    try:
        backend = resolve_backend(name)
    except ImportError:  # pragma: no cover - no fallback configured
        return pytest.param(name, marks=pytest.mark.skip(f"{name} unavailable"))
    if backend.name != name:
        return pytest.param(
            name, marks=pytest.mark.skip(f"{name} fell back to {backend.name}")
        )
    return pytest.param(name)


BACKENDS = [_available(name) for name in backend_names()]

#: A representative configuration slice: the default, the smallest
#: chunks (fields far from word-aligned), the largest, and a mixed one.
CONFIG_NAMES = ["S2", "S9", "S14", "S21"]

addresses = st.integers(min_value=0, max_value=(1 << ADDRESS_BITS) - 1)
address_sets = st.lists(addresses, max_size=32)


@pytest.fixture(params=BACKENDS)
def backend(request):
    return resolve_backend(request.param)


def _pair(backend, config, address_set):
    """The same address set through the backend under test and the
    packed reference."""
    ours = backend.from_addresses(config, address_set)
    reference = REFERENCE.from_addresses(config, address_set)
    return ours, reference


# ----------------------------------------------------------------------
# Unit battery: exact agreement on deterministic inputs
# ----------------------------------------------------------------------

class TestUnitConformance:
    def test_fresh_signature_is_empty(self, backend):
        signature = backend.make_signature(default_tm_config())
        assert signature.is_empty()
        assert signature.to_flat_int() == 0
        assert signature.popcount() == 0

    @pytest.mark.parametrize("name", CONFIG_NAMES)
    @pytest.mark.parametrize(
        "granularity", [Granularity.LINE, Granularity.WORD]
    )
    def test_bit_exact_encoding_both_granularities(
        self, backend, name, granularity
    ):
        config = table8_config(name, granularity)
        rng = random.Random(0xBEEF ^ hash((name, granularity.name)) & 0xFFFF)
        address_set = [rng.randrange(1 << ADDRESS_BITS) for _ in range(64)]
        ours, reference = _pair(backend, config, address_set)
        assert ours.to_flat_int() == reference.to_flat_int()
        assert ours.fields == reference.fields
        assert ours.popcount() == reference.popcount()
        assert list(ours.set_bit_positions()) == list(
            reference.set_bit_positions()
        )

    def test_scalar_and_batch_insertion_agree(self, backend):
        """One ``add`` per address equals one ``add_mask`` of the OR of
        every address's mask."""
        config = default_tm_config()
        rng = random.Random(7)
        address_set = [rng.randrange(1 << ADDRESS_BITS) for _ in range(40)]
        one_by_one = backend.make_signature(config)
        for address in address_set:
            one_by_one.add(address)
        folded = 0
        for address in address_set:
            folded |= config.flat_mask(address)
        batched = backend.make_signature(config)
        batched.add_mask(folded)
        assert one_by_one.to_flat_int() == batched.to_flat_int() == folded
        for address in address_set:
            assert address in one_by_one
            assert address in batched

    def test_set_operations_match_reference(self, backend):
        config = default_tls_config()
        rng = random.Random(21)
        set_a = [rng.randrange(1 << ADDRESS_BITS) for _ in range(24)]
        set_b = [rng.randrange(1 << ADDRESS_BITS) for _ in range(24)]
        a_ours, a_ref = _pair(backend, config, set_a)
        b_ours, b_ref = _pair(backend, config, set_b)
        assert (a_ours & b_ours).to_flat_int() == (a_ref & b_ref).to_flat_int()
        assert (a_ours | b_ours).to_flat_int() == (a_ref | b_ref).to_flat_int()
        assert a_ours.intersects(b_ours) == a_ref.intersects(b_ref)
        merged = a_ours.copy()
        merged.union_update(b_ours)
        reference_merged = a_ref.copy()
        reference_merged.union_update(b_ref)
        assert merged.to_flat_int() == reference_merged.to_flat_int()

    def test_mixed_backend_operands(self, backend):
        """Cross-backend operands must interoperate: a signature of one
        backend intersected/unioned with a packed one."""
        config = default_tm_config()
        rng = random.Random(33)
        set_a = [rng.randrange(1 << ADDRESS_BITS) for _ in range(20)]
        set_b = [rng.randrange(1 << ADDRESS_BITS) for _ in range(20)]
        ours = backend.from_addresses(config, set_a)
        packed = REFERENCE.from_addresses(config, set_b)
        both_packed_a = REFERENCE.from_addresses(config, set_a)
        assert ours.intersects(packed) == both_packed_a.intersects(packed)
        assert packed.intersects(ours) == packed.intersects(both_packed_a)
        merged = ours.copy()
        merged.union_update(packed)
        assert merged.to_flat_int() == (
            both_packed_a.to_flat_int() | packed.to_flat_int()
        )
        assert ours == both_packed_a  # __eq__ across backends

    def test_flat_round_trip_and_clear(self, backend):
        config = default_tm_config()
        signature = backend.from_addresses(config, [1, 2, 3, 99, 12345])
        flat = signature.to_flat_int()
        rebuilt = backend.from_flat_int(config, flat)
        assert type(rebuilt) is backend.signature_class
        assert rebuilt.to_flat_int() == flat
        assert rebuilt == signature
        rebuilt.clear()
        assert rebuilt.is_empty()
        assert rebuilt.to_flat_int() == 0
        assert signature.to_flat_int() == flat  # clear() didn't alias

    def test_copy_is_independent(self, backend):
        config = default_tm_config()
        original = backend.from_addresses(config, [5, 6, 7])
        duplicate = original.copy()
        assert type(duplicate) is type(original)
        duplicate.add(424242)
        assert original != duplicate
        assert 424242 not in original

    def test_empty_edge_cases(self, backend):
        config = default_tm_config()
        empty = backend.make_signature(config)
        other = backend.from_addresses(config, [1, 2, 3])
        assert not empty.intersects(other)
        assert not other.intersects(empty)
        assert (empty | other) == other
        assert (empty & other).is_empty()
        empty.add_mask(0)  # no-op, not an error
        assert empty.is_empty()

    def test_full_saturation_edge_case(self, backend):
        """An all-ones register: still bit-identical, intersects
        everything non-empty, and contains every address."""
        config = default_tm_config()
        all_ones = (1 << config.layout.signature_bits) - 1
        saturated = backend.from_flat_int(config, all_ones)
        reference = REFERENCE.from_flat_int(config, all_ones)
        assert saturated.to_flat_int() == all_ones
        assert saturated.popcount() == config.layout.signature_bits
        assert not saturated.is_empty()
        probe = backend.from_addresses(config, [77])
        assert saturated.intersects(probe)
        assert saturated == reference
        for address in (0, 1, (1 << ADDRESS_BITS) - 1):
            assert address in saturated


# ----------------------------------------------------------------------
# Hypothesis battery: randomised agreement with the packed reference
# ----------------------------------------------------------------------

class TestPropertyConformance:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(CONFIG_NAMES), address_sets)
    def test_encoding_matches_reference(self, backend, name, address_set):
        config = TABLE8_CONFIGS[name]
        ours, reference = _pair(backend, config, address_set)
        assert ours.to_flat_int() == reference.to_flat_int()
        assert ours.is_empty() == reference.is_empty()

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(CONFIG_NAMES), address_sets, address_sets)
    def test_algebra_matches_reference(
        self, backend, name, set_a, set_b
    ):
        config = TABLE8_CONFIGS[name]
        a_ours, a_ref = _pair(backend, config, set_a)
        b_ours, b_ref = _pair(backend, config, set_b)
        assert a_ours.intersects(b_ours) == a_ref.intersects(b_ref)
        assert (a_ours & b_ours).to_flat_int() == (a_ref & b_ref).to_flat_int()
        assert (a_ours | b_ours).to_flat_int() == (a_ref | b_ref).to_flat_int()

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(address_sets, addresses)
    def test_membership_matches_reference(self, backend, address_set, probe):
        config = TABLE8_CONFIGS["S14"]
        ours, reference = _pair(backend, config, address_set)
        assert (probe in ours) == (probe in reference)


# ----------------------------------------------------------------------
# Bank conformance: batched commit-time disambiguation
# ----------------------------------------------------------------------

class TestBankConformance:
    def _reference_flags(self, committed, rows):
        return {
            key: committed.intersects(read) or committed.intersects(write)
            for key, (read, write) in rows.items()
        }

    @pytest.mark.parametrize("seed", [1, 19, 404])
    def test_conflict_flags_match_pairwise_reference(self, backend, seed):
        config = default_tm_config()
        rng = random.Random(seed)

        def sig(n):
            return backend.from_addresses(
                config, [rng.randrange(1 << ADDRESS_BITS) for _ in range(n)]
            )

        committed = sig(16)
        bank = backend.make_bank(config)
        rows = {}
        for pid in range(7):
            read, write = sig(rng.randrange(20)), sig(rng.randrange(10))
            rows[pid] = (read, write)
            bank.add_row(pid, read, write)
        assert len(bank) == 7
        assert list(bank.keys()) == list(range(7))
        assert bank.conflict_flags(committed) == self._reference_flags(
            committed, rows
        )

    def test_empty_bank_yields_no_flags(self, backend):
        bank = backend.make_bank(default_tm_config())
        committed = backend.from_addresses(default_tm_config(), [1, 2, 3])
        assert len(bank) == 0
        assert bank.conflict_flags(committed) == {}

    def test_bank_accepts_mixed_backend_rows(self, backend):
        """Rows built by *other* backends must still disambiguate
        correctly (the simulators mix scheme-held and bank-held
        signatures freely)."""
        config = default_tm_config()
        committed = backend.from_addresses(config, [10, 20, 30])
        bank = backend.make_bank(config)
        bank.add_row(
            "hit",
            REFERENCE.from_addresses(config, [20, 99]),
            REFERENCE.make_signature(config),
        )
        reference_miss = REFERENCE.from_addresses(config, [71])
        bank.add_row("miss", reference_miss, REFERENCE.make_signature(config))
        flags = bank.conflict_flags(committed)
        assert flags["hit"] is True
        assert flags["miss"] == committed.intersects(reference_miss)

    def test_intersect_any_matches_any_of_intersects(self, backend):
        config = default_tm_config()
        rng = random.Random(5)

        def sig(n):
            return backend.from_addresses(
                config, [rng.randrange(1 << ADDRESS_BITS) for _ in range(n)]
            )

        probe = sig(12)
        others = [sig(rng.randrange(16)) for _ in range(9)]
        assert backend.intersect_any(probe, others) == any(
            probe.intersects(other) for other in others
        )
        assert backend.intersect_any(probe, []) is False


# ----------------------------------------------------------------------
# Codec conformance: decode / RLE / expansion kernels vs the scalar
# reference.  Decode and RLE encoding call the backend's kernels
# directly, since their memos are shared by every backend and would
# serve a repeated register without running the kernel; decode() is
# checked too.  RLE decoding and expansion go through the public
# rle_decode()/matched_lines() dispatch.  Backends without a codec pass
# trivially via the fallback, and backends with one prove their kernels
# bit-exact.
# ----------------------------------------------------------------------

from repro.cache.cache import Cache  # noqa: E402
from repro.cache.geometry import TLS_L1_GEOMETRY, TM_L1_GEOMETRY  # noqa: E402
from repro.core.decode import DeltaDecoder  # noqa: E402
from repro.core.expansion import matched_lines  # noqa: E402
from repro.core.rle import (  # noqa: E402
    rle_decode,
    rle_decode_scalar_flat,
    rle_encode_scalar,
)
from repro.core.signature_config import TABLE8_CHUNKS  # noqa: E402
from repro.errors import TraceError  # noqa: E402

GRANULARITIES = [Granularity.LINE, Granularity.WORD]


def _random_addresses(rng, granularity, n):
    return [rng.randrange(1 << granularity.address_bits) for _ in range(n)]


def _kernel_decode(backend, decoder, signature):
    """delta(S) computed by the backend's own kernel, not the memo."""
    if backend.codec is None:
        return decoder.decode_scalar(signature)
    return backend.codec.delta_decode(decoder, signature)


class TestCodecConformance:
    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_delta_decode_matches_scalar_every_table8_config(
        self, backend, granularity
    ):
        """The backend's decode kernel and the memoised decoder.decode
        == decode_scalar (reference) over every Table 8 layout, both
        granularities, several set counts — including empty and
        partially-empty registers."""
        for name in TABLE8_CHUNKS:
            config = table8_config(name, granularity)
            rng = random.Random(hash((name, granularity.name)) & 0xFFFF)
            for n in (0, 1, 40):
                address_set = _random_addresses(rng, granularity, n)
                ours = backend.from_addresses(config, address_set)
                reference = REFERENCE.from_addresses(config, address_set)
                for num_sets in (64, 512):
                    decoder = DeltaDecoder(config, num_sets)
                    expected = decoder.decode_scalar(reference)
                    case = (name, granularity, n, num_sets)
                    assert _kernel_decode(backend, decoder, ours) == expected, case
                    assert decoder.decode(ours) == expected, case

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from(CONFIG_NAMES),
        st.sampled_from(GRANULARITIES),
        address_sets,
    )
    def test_delta_decode_property(self, backend, name, granularity, address_set):
        config = table8_config(name, granularity)
        decoder = DeltaDecoder(config, 128)
        ours = backend.from_addresses(config, address_set)
        reference = REFERENCE.from_addresses(config, address_set)
        expected = decoder.decode_scalar(reference)
        assert _kernel_decode(backend, decoder, ours) == expected
        assert decoder.decode(ours) == expected

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.sampled_from(CONFIG_NAMES),
        st.sampled_from(GRANULARITIES),
        address_sets,
    )
    def test_rle_matches_scalar_and_round_trips(
        self, backend, name, granularity, address_set
    ):
        config = table8_config(name, granularity)
        ours = backend.from_addresses(config, address_set)
        reference = REFERENCE.from_addresses(config, address_set)
        codec = backend.codec
        encoded = (
            codec.rle_encode(ours)
            if codec is not None
            else rle_encode_scalar(ours)
        )
        assert encoded == rle_encode_scalar(reference)
        decoded = rle_decode(config, encoded, backend=backend)
        assert type(decoded) is backend.signature_class
        assert decoded.to_flat_int() == reference.to_flat_int()
        assert rle_decode_scalar_flat(config, encoded) == reference.to_flat_int()

    def test_rle_error_parity(self, backend):
        """Corrupted streams must raise the same TraceError text through
        the backend's decode path as through the scalar reference."""
        config = default_tm_config()
        rng = random.Random(99)
        signature = REFERENCE.from_addresses(
            config, _random_addresses(rng, Granularity.LINE, 30)
        )
        valid = rle_encode_scalar(signature)
        corrupted = [
            valid[:-1],                      # truncated final varint
            valid[: len(valid) // 2],        # truncated mid-stream
            valid + b"\x00",                 # trailing bytes
            b"",                             # empty stream
            b"\x80",                         # lone continuation byte
            b"\x01\xff\xff\x01",             # gap past the register
            b"\x01" + b"\xff" * 9 + b"\x01", # >28-bit varint gap
            b"\xff" * 9 + b"\x01",           # >28-bit varint count
        ]
        for data in corrupted:
            try:
                rle_decode_scalar_flat(config, data)
                expected = None
            except TraceError as error:
                expected = str(error)
            assert expected is not None, data
            with pytest.raises(TraceError) as caught:
                rle_decode(config, data, backend=backend)
            assert str(caught.value) == expected, data

    @pytest.mark.parametrize("granularity", GRANULARITIES)
    def test_expansion_matches_scalar_every_table8_config(
        self, backend, granularity
    ):
        """matched_lines through the backend's signature == through the
        packed reference (scalar membership), for every Table 8 layout."""
        geometry = (
            TM_L1_GEOMETRY if granularity is Granularity.LINE else TLS_L1_GEOMETRY
        )
        cache = Cache(geometry)
        rng = random.Random(4242)
        cached_lines = [rng.getrandbits(22) for _ in range(300)]
        for line_address in cached_lines:
            cache.fill(line_address, tuple(range(16)))
        for name in TABLE8_CHUNKS:
            config = table8_config(name, granularity)
            decoder = DeltaDecoder(config, geometry.num_sets)
            address_set = _random_addresses(rng, granularity, 48)
            if granularity is Granularity.WORD:
                # Make some cached lines genuine members.
                address_set += [
                    (line << 4) | rng.randrange(16)
                    for line in cached_lines[:8]
                ]
            else:
                address_set += cached_lines[:8]
            ours = backend.from_addresses(config, address_set)
            reference = REFERENCE.from_addresses(config, address_set)
            got = [
                line.line_address
                for _, line in matched_lines(ours, cache, decoder)
            ]
            want = [
                line.line_address
                for _, line in matched_lines(reference, cache, decoder)
            ]
            assert got == want, (name, granularity)
            # No false negatives among *resident* lines (fills evict).
            member_lines = {
                config.granularity.line_of(a) for a in address_set
            }
            resident = {
                line for line in member_lines if cache.contains(line)
            }
            assert resident <= set(want), (name, granularity)
