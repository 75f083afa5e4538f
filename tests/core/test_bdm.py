"""Tests for the Bulk Disambiguation Module (Figure 7)."""

import pytest

from repro.cache.cache import Cache
from repro.cache.geometry import TLS_L1_GEOMETRY, TM_L1_GEOMETRY
from repro.core.bdm import BulkDisambiguationModule, SetRestrictionAction
from repro.core.permutation import BitPermutation
from repro.core.signature import Signature
from repro.core.signature_config import (
    SignatureConfig,
    default_tls_config,
    default_tm_config,
)
from repro.errors import ConfigurationError, DeltaInexactError, SimulationError
from repro.mem.address import Granularity

LINE = tuple(range(16))


def make_bdm(contexts=4):
    return BulkDisambiguationModule(
        default_tm_config(), TM_L1_GEOMETRY, num_contexts=contexts
    )


class TestConstruction:
    def test_requires_exact_delta(self):
        sources = list(range(26))
        sources[0], sources[15] = sources[15], sources[0]
        config = SignatureConfig.make(
            (10, 10),
            Granularity.LINE,
            permutation=BitPermutation(26, sources),
            name="scrambled",
        )
        with pytest.raises(DeltaInexactError):
            BulkDisambiguationModule(config, TM_L1_GEOMETRY)

    def test_needs_at_least_one_context(self):
        with pytest.raises(ConfigurationError):
            BulkDisambiguationModule(default_tm_config(), TM_L1_GEOMETRY, 0)

    def test_word_config_gets_word_unit(self):
        bdm = BulkDisambiguationModule(default_tls_config(), TLS_L1_GEOMETRY)
        assert bdm.word_unit is not None

    def test_line_config_has_no_word_unit(self):
        assert make_bdm().word_unit is None


class TestContexts:
    def test_allocate_until_exhausted(self):
        bdm = make_bdm(contexts=2)
        assert bdm.allocate_context(1) is not None
        assert bdm.allocate_context(2) is not None
        assert bdm.allocate_context(3) is None

    def test_release_recycles(self):
        bdm = make_bdm(contexts=1)
        context = bdm.allocate_context(1)
        bdm.release_context(context)
        assert bdm.allocate_context(2) is not None

    def test_running_context_records_accesses(self):
        bdm = make_bdm()
        context = bdm.allocate_context(1)
        bdm.set_running(context)
        # Both return the address's flat encode mask, for callers that
        # record the access into further signatures.
        assert bdm.record_load(0x1000) == bdm.config.flat_mask(0x1000 >> 6)
        assert bdm.record_store(0x2000) == bdm.config.flat_mask(0x2000 >> 6)
        assert (0x1000 >> 6) in context.read_signature
        assert (0x2000 >> 6) in context.write_signature

    def test_recording_without_running_context_raises(self):
        bdm = make_bdm()
        with pytest.raises(SimulationError):
            bdm.record_load(0)

    def test_running_inactive_context_rejected(self):
        bdm = make_bdm()
        with pytest.raises(SimulationError):
            bdm.set_running(bdm.contexts[0])

    def test_clear_resets_everything(self):
        bdm = make_bdm()
        context = bdm.allocate_context(1)
        bdm.set_running(context)
        bdm.record_store(0x2000)
        context.overflow = True
        context.clear()
        assert context.write_signature.is_empty()
        assert context.delta_mask == 0
        assert not context.overflow


class TestDecodedBitmasks:
    def test_delta_wrun_tracks_stores(self):
        bdm = make_bdm()
        context = bdm.allocate_context(1)
        bdm.set_running(context)
        bdm.record_store(0x2000)
        set_index = bdm.decoder.set_index_of(0x2000 >> 6)
        assert (bdm.delta_w_run >> set_index) & 1

    def test_or_delta_wpre_covers_preempted(self):
        bdm = make_bdm()
        first = bdm.allocate_context(1)
        bdm.set_running(first)
        bdm.record_store(0x2000)
        set_index = bdm.decoder.set_index_of(0x2000 >> 6)
        second = bdm.allocate_context(2)
        bdm.set_running(second)  # first is now preempted
        assert (bdm.or_delta_w_pre >> set_index) & 1
        assert not (bdm.delta_w_run >> set_index) & 1

    def test_speculative_owner_of_set(self):
        bdm = make_bdm()
        context = bdm.allocate_context(1)
        bdm.set_running(context)
        bdm.record_store(0x2000)
        set_index = bdm.decoder.set_index_of(0x2000 >> 6)
        assert bdm.speculative_owner_of_set(set_index) is context

    def test_external_request_screening(self):
        bdm = make_bdm()
        context = bdm.allocate_context(1)
        bdm.set_running(context)
        bdm.record_store(0x2000)
        set_index = bdm.decoder.set_index_of(0x2000 >> 6)
        assert bdm.set_has_speculative_dirty(set_index)
        assert not bdm.set_has_speculative_dirty((set_index + 1) % 128)


class TestSetRestriction:
    def test_fresh_set_requires_safe_writeback(self):
        bdm = make_bdm()
        context = bdm.allocate_context(1)
        bdm.set_running(context)
        assert bdm.store_set_action(0x40) is SetRestrictionAction.WRITEBACK_NONSPEC

    def test_own_set_proceeds(self):
        bdm = make_bdm()
        context = bdm.allocate_context(1)
        bdm.set_running(context)
        bdm.record_store(0x40 << 6)
        assert bdm.store_set_action(0x40) is SetRestrictionAction.PROCEED

    def test_preempted_owner_conflicts(self):
        bdm = make_bdm()
        first = bdm.allocate_context(1)
        bdm.set_running(first)
        bdm.record_store(0x40 << 6)
        second = bdm.allocate_context(2)
        bdm.set_running(second)
        assert bdm.store_set_action(0x40) is SetRestrictionAction.CONFLICT

    def test_disjoint_write_signatures_invariant(self):
        bdm = make_bdm()
        first = bdm.allocate_context(1)
        bdm.set_running(first)
        bdm.record_store(0x1000)
        second = bdm.allocate_context(2)
        bdm.set_running(second)
        bdm.record_store(0x80000)
        bdm.assert_disjoint_write_signatures()


class TestBulkInvalidation:
    def test_squash_invalidates_only_dirty_matches(self):
        bdm = make_bdm()
        cache = Cache(TM_L1_GEOMETRY)
        context = bdm.allocate_context(1)
        bdm.set_running(context)
        cache.fill(0x40, LINE, dirty=True)
        cache.fill(0x41, LINE, dirty=False)
        bdm.record_store(0x40 << 6)
        invalidated = bdm.squash_invalidate(cache, context)
        assert invalidated == 1
        assert cache.lookup(0x40) is None
        assert cache.lookup(0x41) is not None

    def test_squash_with_read_lines_tls_extension(self):
        config = default_tls_config()
        bdm = BulkDisambiguationModule(config, TLS_L1_GEOMETRY)
        cache = Cache(TLS_L1_GEOMETRY)
        context = bdm.allocate_context(1)
        bdm.set_running(context)
        cache.fill(0x33, LINE, dirty=False)
        bdm.record_load((0x33 << 6) + 8)
        invalidated = bdm.squash_invalidate(
            cache, context, invalidate_read_lines=True
        )
        assert invalidated == 1
        assert cache.lookup(0x33) is None

    def test_commit_invalidates_clean_copies(self):
        bdm = make_bdm()
        cache = Cache(TM_L1_GEOMETRY)
        config = default_tm_config()
        cache.fill(0x99, LINE, dirty=False)
        committed = Signature.from_addresses(config, {0x99})
        invalidated, false_invalidated, merged, _ = bdm.commit_invalidate(
            cache, committed
        )
        assert invalidated == 1
        assert false_invalidated == 0  # no oracle: nothing counts as false
        assert merged == 0
        assert cache.lookup(0x99) is None

    def test_commit_leaves_nonspec_dirty_alone(self):
        """The aliasing case of Section 4.3: a dirty non-speculative line
        that merely aliases into W_C must not be touched."""
        bdm = make_bdm()
        cache = Cache(TM_L1_GEOMETRY)
        config = default_tm_config()
        cache.fill(0x99, LINE, dirty=True)
        committed = Signature.from_addresses(config, {0x99})
        invalidated, _, _, _ = bdm.commit_invalidate(cache, committed)
        assert invalidated == 0
        assert cache.lookup(0x99) is not None

    def test_commit_false_invalidation_accounting(self):
        bdm = make_bdm()
        cache = Cache(TM_L1_GEOMETRY)
        config = default_tm_config()
        committed = Signature.from_addresses(config, {0x99})
        # Construct an alias of line 0x99: same low 20 permuted bits
        # (both chunks), different high bits — guaranteed to pass the
        # membership test without having been inserted.
        permutation = config.permutation
        inverse = BitPermutation(
            permutation.width,
            [permutation.destination_of(b) for b in range(permutation.width)],
        )
        alias = inverse.apply(permutation.apply(0x99) | (1 << 21))
        assert alias != 0x99 and alias in committed
        cache.fill(alias, LINE, dirty=False)
        invalidated, false_invalidated, _, _ = bdm.commit_invalidate(
            cache, committed, exact_written_lines={0x99}
        )
        assert invalidated == 1
        assert false_invalidated == 1
        assert cache.lookup(alias) is None

    def test_word_merge_on_commit(self):
        """Section 4.4: receiver keeps its own words, takes the
        committer's for the rest."""
        config = default_tls_config()
        bdm = BulkDisambiguationModule(config, TLS_L1_GEOMETRY)
        cache = Cache(TLS_L1_GEOMETRY)
        context = bdm.allocate_context(1)
        bdm.set_running(context)

        line_address = 0x123
        local = [0] * 16
        local[5] = 555
        cache.fill(line_address, local, dirty=True)
        bdm.record_store(((line_address << 4) + 5) << 2)

        committed_words = [0] * 16
        committed_words[1] = 111
        w_c = Signature(config)
        w_c.add((line_address << 4) + 1)

        _, _, merged, _ = bdm.commit_invalidate(
            cache, w_c, fetch_committed_line=lambda _: tuple(committed_words)
        )
        assert merged == 1
        line = cache.lookup(line_address)
        assert line is not None and line.dirty
        assert line.words[5] == 555  # local update kept
        assert line.words[1] == 111  # committed update taken


class TestOverflowScreening:
    def test_no_overflow_no_check(self):
        bdm = make_bdm()
        context = bdm.allocate_context(1)
        assert not bdm.miss_needs_overflow_check(context, 0x1000)

    def test_membership_filter(self):
        bdm = make_bdm()
        context = bdm.allocate_context(1)
        bdm.set_running(context)
        bdm.record_store(0x2000)
        bdm.note_speculative_eviction(context)
        assert context.overflow
        assert bdm.miss_needs_overflow_check(context, 0x2000)
        assert not bdm.miss_needs_overflow_check(context, 0x7654321 << 6)
