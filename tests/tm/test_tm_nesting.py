"""Tests for closed nesting with partial rollback (Section 6.2.1)."""

import pytest

from repro.sim.trace import ThreadTrace, compute, load, store, tx_begin, tx_end
from repro.tm.bulk import BulkScheme
from repro.tm.eager import EagerScheme
from repro.tm.lazy import LazyScheme
from repro.tm.system import TmSystem


def nested_trace(tid, conflict_address, read_in_section):
    """A transaction with three sections (Figure 8); the conflicting
    read sits in the requested section (1, 2 or 3).  A long compute tail
    keeps the transaction open so a concurrent commit lands after the
    conflicting read."""
    def section_events(section):
        events = []
        if section == read_in_section:
            events.append(load(conflict_address))
        events += [load(0x100000 + tid * 0x10000 + section * 256),
                   compute(80)]
        return events

    events = [tx_begin()]
    events += section_events(1)
    events += [tx_begin()]
    events += section_events(2)
    events += [tx_end()]
    events += section_events(3)
    events += [compute(500)]
    events += [tx_end()]
    return ThreadTrace(tid, events)


def writer_trace(tid, conflict_address):
    """Commits its store roughly in the middle of the victim's third
    section (the victim reaches section 3 around cycle 300)."""
    return ThreadTrace(
        tid,
        [compute(380), tx_begin(), store(conflict_address, 42), tx_end()],
    )


class TestFlatNesting:
    @pytest.mark.parametrize("scheme_cls", [EagerScheme, LazyScheme, BulkScheme])
    def test_nested_markers_commit_once(self, scheme_cls):
        trace = ThreadTrace(
            0,
            [tx_begin(), load(0x40), tx_begin(), store(0x80, 1), tx_end(),
             load(0xC0), tx_end()],
        )
        result = TmSystem([trace], scheme_cls()).run()
        assert result.stats.committed_transactions == 1
        assert result.memory.load(0x80 >> 2) == 1


class TestPartialRollback:
    def test_violation_in_late_section_preserves_early_sections(self):
        victim = nested_trace(0, 0xF000, read_in_section=3)
        writer = writer_trace(1, 0xF000)
        system = TmSystem([victim, writer], BulkScheme(partial_rollback=True))
        result = system.run()
        assert result.stats.committed_transactions == 2
        assert result.stats.partial_rollbacks >= 1
        # A partial rollback re-executes less than a full squash would;
        # the transaction still commits correctly.
        assert result.memory.load(0xF000 >> 2) == 42

    def test_violation_in_first_section_is_full_squash(self):
        victim = nested_trace(0, 0xF000, read_in_section=1)
        writer = writer_trace(1, 0xF000)
        result = TmSystem(
            [victim, writer], BulkScheme(partial_rollback=True)
        ).run()
        assert result.stats.committed_transactions == 2
        assert result.stats.partial_rollbacks == 0
        assert result.stats.squashes >= 1

    def test_partial_rollback_off_by_default(self):
        victim = nested_trace(0, 0xF000, read_in_section=3)
        writer = writer_trace(1, 0xF000)
        result = TmSystem([victim, writer], BulkScheme()).run()
        assert result.stats.partial_rollbacks == 0

    def test_commit_broadcasts_union_of_section_writes(self):
        """Figure 8: the outer commit sends W1 ∪ W2 ∪ W3 — a receiver
        that read data written in the *inner* section must squash."""
        writer = ThreadTrace(
            0,
            [tx_begin(), store(0x1000, 1), tx_begin(), store(0x2000, 2),
             tx_end(), store(0x3000, 3), tx_end()],
        )
        reader = ThreadTrace(
            1,
            [tx_begin(), load(0x2000), compute(2000), tx_end()],
        )
        result = TmSystem(
            [writer, reader], BulkScheme(partial_rollback=True)
        ).run()
        assert result.stats.committed_transactions == 2
        assert result.stats.squashes >= 1
