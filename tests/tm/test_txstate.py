"""Tests for per-transaction state (sections, logs, exact sets)."""

import pytest

from repro.core.signature_config import default_tm_config
from repro.errors import SimulationError
from repro.tm.txstate import TxnState


def make_txn(signatures=False):
    config = default_tm_config() if signatures else None
    return TxnState(txn_id=1, start_cursor=10, signature_config=config)


class TestRecording:
    def test_load_goes_to_read_granules(self):
        txn = make_txn()
        txn.record_load(0x1000)
        assert 0x1000 >> 6 in txn.all_read_granules()

    def test_store_logs_word_value(self):
        txn = make_txn()
        txn.record_store(0x1004, 77)
        assert txn.lookup_word(0x1004 >> 2) == 77
        assert 0x1000 >> 6 in txn.all_write_granules()

    def test_lookup_unwritten_word_is_none(self):
        assert make_txn().lookup_word(5) is None

    def test_newest_section_value_wins(self):
        txn = make_txn()
        txn.record_store(0x1000, 1)
        txn.push_section(cursor=20)
        txn.record_store(0x1000, 2)
        assert txn.lookup_word(0x1000 >> 2) == 2
        assert txn.merged_write_log()[0x1000 >> 2] == 2


class TestSections:
    def test_first_section_starts_after_begin(self):
        txn = make_txn()
        assert txn.sections[0].start_cursor == 11

    def test_push_section_tracks_depth(self):
        txn = make_txn()
        txn.depth = 2
        txn.push_section(cursor=30)
        assert txn.sections[-1].depth_at_start == 2

    def test_discard_rewinds_to_section_start(self):
        txn = make_txn()
        txn.record_store(0x1000, 1)
        txn.depth = 2
        txn.push_section(cursor=30)
        txn.record_store(0x2000, 2)
        restart = txn.discard_sections_from(1)
        assert restart == 30
        assert txn.depth == 2
        assert txn.lookup_word(0x2000 >> 2) is None
        assert txn.lookup_word(0x1000 >> 2) == 1

    def test_discard_rebuilds_aggregates(self):
        txn = make_txn()
        txn.record_load(0x1000)
        txn.push_section(cursor=30)
        txn.record_load(0x2000)
        txn.discard_sections_from(1)
        assert 0x2000 >> 6 not in txn.all_read_granules()
        assert 0x1000 >> 6 in txn.all_read_granules()

    def test_discard_out_of_range(self):
        with pytest.raises(SimulationError):
            make_txn().discard_sections_from(5)

    def test_reset_for_restart(self):
        txn = make_txn()
        txn.record_store(0x1000, 1)
        txn.depth = 3
        txn.reset_for_restart()
        assert txn.depth == 1
        assert txn.attempts == 2
        assert not txn.all_write_granules()
        assert txn.merged_write_log() == {}


class TestSignatures:
    def test_sections_carry_signatures_when_configured(self):
        txn = make_txn(signatures=True)
        assert txn.sections[0].read_signature is not None
