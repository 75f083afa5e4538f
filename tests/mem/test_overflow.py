"""Tests for the per-thread overflow area."""

import pytest

from repro.errors import OverflowAreaError
from repro.mem.overflow import OverflowArea

LINE = tuple(range(16))


class TestOverflowArea:
    def test_spill_and_lookup(self):
        area = OverflowArea(owner=3)
        area.spill(0x40, LINE)
        assert area.lookup(0x40) == LINE

    def test_lookup_missing_line(self):
        area = OverflowArea(owner=0)
        assert area.lookup(0x99) is None

    def test_drain_returns_everything_and_empties(self):
        area = OverflowArea(owner=0)
        area.spill(1, LINE)
        area.spill(2, LINE)
        drained = area.drain()
        assert set(drained) == {1, 2}
        assert area.is_empty()

    def test_deallocate_discards_and_kills(self):
        area = OverflowArea(owner=0)
        area.spill(1, LINE)
        assert area.deallocate() == 1
        with pytest.raises(OverflowAreaError):
            area.lookup(1)

    def test_line_count(self):
        area = OverflowArea(owner=0)
        assert area.line_count == 0
        area.spill(1, LINE)
        area.spill(1, LINE)  # same line: overwrite, not duplicate
        assert area.line_count == 1

    def test_use_after_deallocate_rejected(self):
        area = OverflowArea(owner=0)
        area.deallocate()
        with pytest.raises(OverflowAreaError):
            area.spill(1, LINE)
