"""The scheme base class's default hooks (contract documentation)."""

from repro.sim.trace import ThreadTrace, load
from repro.tm.conflict import TmScheme
from repro.tm.params import TM_DEFAULTS
from repro.tm.processor import TmProcessor
from repro.tm.txstate import TxnState

LINE = tuple(range(16))


class MinimalScheme(TmScheme):
    """A scheme overriding only the abstract method."""

    name = "Minimal"

    def commit_packet(self, system, proc):
        return 0


def make_proc():
    return TmProcessor(0, ThreadTrace(0, [load(0)]), TM_DEFAULTS.geometry)


def make_txn_proc():
    """A processor inside a transaction that read line 0x10 and wrote
    line 0x20."""
    proc = make_proc()
    proc.txn = TxnState(txn_id=0, start_cursor=0)
    proc.txn.record_load(0x10 << 6)
    proc.txn.record_store(0x20 << 6, 7)
    return proc


class TestDefaults:
    def test_eager_check_defaults_to_no_stall(self):
        scheme = MinimalScheme()
        assert scheme.eager_check(None, make_proc(), 0x100, True) is None

    def test_receiver_conflict_defaults_to_none(self):
        scheme = MinimalScheme()
        assert scheme.receiver_conflict(None, make_proc(), make_proc()) is None

    def test_nonspec_check_defaults_to_exact_membership(self):
        """The exact schemes' test: squash when the invalidated line is
        in the transaction's read or write set."""
        scheme = MinimalScheme()
        proc = make_txn_proc()
        assert scheme.nonspec_inval_check(None, proc, (0x10 << 6) + 4)
        assert scheme.nonspec_inval_check(None, proc, 0x20 << 6)
        assert not scheme.nonspec_inval_check(None, proc, 0x30 << 6)

    def test_overflow_check_follows_processor_state(self):
        scheme = MinimalScheme()
        proc = make_proc()
        assert not scheme.miss_checks_overflow(None, proc, 0x100)
        area = proc.ensure_overflow_area()
        area.spill(0x4, tuple(range(16)))
        assert scheme.miss_checks_overflow(None, proc, 0x100)

    def test_lifecycle_hooks_are_no_ops(self):
        scheme = MinimalScheme()
        proc = make_proc()
        scheme.setup_processor(None, proc)
        scheme.on_txn_begin(None, proc)
        scheme.record_load(None, proc, 0)
        scheme.record_store(None, proc, 0)
        scheme.commit_update_receiver(None, proc, proc)
        scheme.commit_cleanup(None, proc)
        scheme.on_spec_eviction(None, proc)

    def test_squash_cleanup_drops_dirty_written_lines(self):
        """The exact schemes' cleanup: a dirty line the transaction wrote
        leaves the cache; clean or unwritten lines stay."""
        scheme = MinimalScheme()
        proc = make_txn_proc()
        proc.cache.fill(0x20, LINE, dirty=True)
        proc.cache.fill(0x21, LINE, dirty=True)
        proc.cache.fill(0x10, LINE)
        scheme.squash_cleanup(None, proc, 0)
        assert proc.cache.lookup(0x20) is None
        assert proc.cache.lookup(0x21) is not None
        assert proc.cache.lookup(0x10) is not None


class TestProcessorHelpers:
    def test_fresh_txn_ids_are_unique_and_tagged(self):
        proc = make_proc()
        first = proc.fresh_txn_id()
        second = proc.fresh_txn_id()
        assert first != second
        assert first % 1000 == proc.pid

    def test_overflow_area_recreated_after_deallocation(self):
        proc = make_proc()
        area = proc.ensure_overflow_area()
        area.deallocate()
        fresh = proc.ensure_overflow_area()
        assert fresh is not area
        assert fresh.allocated
