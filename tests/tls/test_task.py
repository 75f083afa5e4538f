"""Tests for TLS task descriptors and runtime state."""

import pytest

from repro.errors import TraceError
from repro.mem.address import WORD_TO_LINE_SHIFT
from repro.sim.trace import compute, load, store, tx_begin
from repro.tls.task import TaskState, TaskStatus, TlsTask


class TestTlsTask:
    def test_rejects_transaction_markers(self):
        with pytest.raises(TraceError):
            TlsTask(0, [tx_begin()])

    def test_rejects_out_of_range_spawn(self):
        with pytest.raises(TraceError):
            TlsTask(0, [load(0)], spawn_cursor=5)

    def test_spawn_at_end_allowed(self):
        task = TlsTask(0, [load(0)], spawn_cursor=1)
        assert task.spawn_cursor == 1


class TestTaskState:
    def test_initial_status_pending(self):
        state = TaskState(TlsTask(0, [load(0)]))
        assert state.status is TaskStatus.PENDING
        assert not state.is_active()

    def test_record_load_and_store(self):
        state = TaskState(TlsTask(0, [load(0)]))
        state.record_load(0x104)
        state.record_store(0x108, 7)
        assert 0x104 >> 2 in state.read_words
        assert state.write_log == {0x108 >> 2: 7}

    def test_shadow_tracks_post_spawn_writes_only(self):
        state = TaskState(TlsTask(0, [load(0)]))
        state.record_store(0x100, 1)  # pre-spawn
        state.start_shadow()
        state.record_store(0x200, 2)  # post-spawn
        assert state.shadow_write_words == {0x200 >> 2}
        assert state.prespawn_write_words == {0x100 >> 2}

    def test_write_lines(self):
        """The line index follows the write set store by store, and
        across a restart."""
        state = TaskState(TlsTask(0, [load(0)]))

        def derived():
            return {w >> WORD_TO_LINE_SHIFT for w in state.write_log}

        state.record_store(0x100, 1)
        assert state.write_lines() == derived() == {0x100 >> 6}
        state.record_store(0x104, 1)  # same line
        assert state.write_lines() == derived() == {0x100 >> 6}
        state.record_store(0x240, 1)  # a second line
        assert state.write_lines() == derived() == {0x100 >> 6, 0x240 >> 6}
        state.reset_for_restart()
        assert state.write_lines() == derived() == set()
        state.record_store(0x380, 2)  # a third line
        assert state.write_lines() == derived() == {0x380 >> 6}

    def test_reset_for_restart_clears_everything(self):
        state = TaskState(TlsTask(0, [load(0)]))
        state.status = TaskStatus.RUNNING
        state.record_load(0x104)
        state.record_store(0x100, 1)
        state.start_shadow()
        state.pending_stale.add(3)
        state.cursor = 5
        state.reset_for_restart()
        assert state.cursor == 0
        assert state.attempts == 1
        assert not state.write_log and not state.read_words
        assert not state.write_lines()
        assert state.shadow_write_words is None
        assert not state.pending_stale
        assert state.status is TaskStatus.RUNNING
