"""Tests for per-transaction state (one exact record, sections)."""

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
        assert 0x1000 >> 6 in txn.read_granules

    def test_store_logs_word_value(self):
        txn = make_txn()
        txn.record_store(0x1004, 77)
        assert txn.write_log.get(0x1004 >> 2) == 77
        assert 0x1000 >> 6 in txn.write_granules

    def test_lookup_unwritten_word_is_none(self):
        assert make_txn().write_log.get(5) is None

    def test_newest_section_value_wins(self):
        txn = make_txn()
        txn.record_store(0x1000, 1)
        txn.push_section(cursor=20)
        txn.record_store(0x1000, 2)
        assert txn.write_log == {0x1000 >> 2: 2}


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
        assert txn.write_log.get(0x2000 >> 2) is None
        assert txn.write_log.get(0x1000 >> 2) == 1

    def test_discard_rebuilds_aggregates(self):
        txn = make_txn()
        txn.record_load(0x1000)
        txn.push_section(cursor=30)
        txn.record_load(0x2000)
        txn.discard_sections_from(1)
        assert 0x2000 >> 6 not in txn.read_granules
        assert 0x1000 >> 6 in txn.read_granules

    def test_discard_restores_an_overwritten_word(self):
        """A word written in section 0 and overwritten in section 1 reads
        its section-0 value after section 1 is rolled back."""
        txn = make_txn()
        txn.record_store(0x1000, 1)
        txn.push_section(cursor=30)
        txn.record_store(0x1000, 2)
        txn.record_store(0x2000, 3)
        txn.discard_sections_from(1)
        assert txn.write_log == {0x1000 >> 2: 1}
        assert txn.write_granules == {0x1000 >> 6}

    def test_repeated_rollbacks_restore_the_same_record(self):
        """Two rollbacks to one section in a row restore the same record:
        the first replay's accesses must not leak into the snapshot."""
        txn = make_txn()
        txn.record_load(0x1000)
        txn.record_store(0x1000, 1)
        txn.push_section(cursor=30)
        before = (set(txn.read_granules), set(txn.write_granules),
                  dict(txn.write_log))
        for value in (2, 3):
            txn.record_load(0x3000)
            txn.record_store(0x1000, value)
            txn.record_store(0x2000, value)
            assert txn.discard_sections_from(1) == 30
            assert (txn.read_granules, txn.write_granules,
                    txn.write_log) == before
        assert len(txn.sections) == 2

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
        assert not txn.write_granules
        assert txn.write_log == {}


class TestSignatures:
    def test_sections_carry_signatures_when_configured(self):
        txn = make_txn(signatures=True)
        assert txn.sections[0].read_signature is not None
