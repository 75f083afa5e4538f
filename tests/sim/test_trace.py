"""Tests for trace events and thread traces."""

import pytest

from repro.errors import TraceError
from repro.sim.trace import (
    EventKind,
    MemEvent,
    ThreadTrace,
    compute,
    load,
    serial_reference_memory,
    store,
    tx_begin,
    tx_end,
)


class TestEvents:
    def test_store_carries_value(self):
        event = store(0x100, 42)
        assert event.kind is EventKind.STORE
        assert event.value == 42

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            load(-1)

    def test_compute_needs_positive_cycles(self):
        with pytest.raises(TraceError):
            compute(0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: store(-1, 0),
            lambda: MemEvent(EventKind.LOAD, -1),
            lambda: MemEvent(EventKind.COMPUTE),
            lambda: load(8)._replace(address=-1),
        ],
        ids=["store", "direct-load", "direct-compute", "replace"],
    )
    def test_every_constructor_checks_its_fields(self, make):
        with pytest.raises(TraceError):
            make()

    def test_events_are_immutable_and_have_no_dict(self):
        event = load(64)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.address = 0

    def test_markers_are_shared_instances(self):
        assert tx_begin() is tx_begin()
        assert tx_end() is tx_end()


class TestThreadTrace:
    def test_balanced_transactions_accepted(self):
        trace = ThreadTrace(0, [tx_begin(), load(0), tx_end()])
        assert trace.transaction_count() == 1

    def test_unbalanced_end_rejected(self):
        with pytest.raises(TraceError):
            ThreadTrace(0, [tx_end()])

    def test_unclosed_begin_rejected(self):
        with pytest.raises(TraceError):
            ThreadTrace(0, [tx_begin(), load(0)])

    def test_nested_transactions_count_once(self):
        trace = ThreadTrace(
            0,
            [tx_begin(), tx_begin(), load(0), tx_end(), tx_end(),
             tx_begin(), tx_end()],
        )
        assert trace.transaction_count() == 2

    @pytest.mark.parametrize(
        "events, depth",
        [
            ([], 0),
            ([load(0), compute(5)], 0),
            ([tx_begin(), load(0), tx_end(), tx_begin(), tx_end()], 1),
            (
                [tx_begin(), tx_begin(), load(0), tx_end(), tx_begin(),
                 tx_begin(), tx_end(), tx_end(), tx_end()],
                3,
            ),
        ],
        ids=["empty", "no-transaction", "flat", "nested"],
    )
    def test_max_depth(self, events, depth):
        assert ThreadTrace(0, events).max_depth == depth


class TestSerialReference:
    def test_last_store_wins_within_thread(self):
        trace = ThreadTrace(0, [store(0, 1), store(0, 2)])
        assert serial_reference_memory([trace]) == {0: 2}

    def test_threads_apply_in_order(self):
        first = ThreadTrace(0, [store(0, 1)])
        second = ThreadTrace(1, [store(0, 9)])
        assert serial_reference_memory([first, second]) == {0: 9}
