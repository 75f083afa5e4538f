"""Integration tests of the TLS system with hand-built tasks."""

import pytest

from repro.analysis.experiments import run_tls_comparison
from repro.obs import Observability
from repro.sim.trace import compute, load, store
from repro.tls.bulk import TlsBulkScheme
from repro.tls.eager import TlsEagerScheme
from repro.tls.lazy import TlsLazyScheme
from repro.tls.params import TLS_DEFAULTS, TlsParams
from repro.tls.system import TlsSystem, simulate_sequential
from repro.tls.task import TlsTask

ALL_SCHEMES = [
    TlsEagerScheme,
    TlsLazyScheme,
    lambda: TlsBulkScheme(True),
    lambda: TlsBulkScheme(False),
]


def run(tasks, scheme_factory, params=TLS_DEFAULTS):
    return TlsSystem(
        [TlsTask(t.task_id, t.events, t.spawn_cursor) for t in tasks],
        scheme_factory(),
        params,
    ).run()


def independent_tasks(count=8, size=6):
    tasks = []
    for task_id in range(count):
        base = 0x100000 + task_id * 0x4000
        events = [compute(10)]
        spawn = len(events)
        for i in range(size):
            events.append(load(base + i * 64))
        for i in range(size // 2):
            events.append(store(base + i * 64, task_id * 100 + i))
        tasks.append(TlsTask(task_id, events, spawn_cursor=spawn))
    return tasks


class TestBasicExecution:
    @pytest.mark.parametrize("scheme_factory", ALL_SCHEMES)
    def test_all_tasks_commit_in_order(self, scheme_factory):
        result = run(independent_tasks(), scheme_factory)
        assert result.stats.committed_tasks == 8
        assert result.stats.squashes == 0

    @pytest.mark.parametrize("scheme_factory", ALL_SCHEMES)
    def test_final_memory_matches_sequential_semantics(self, scheme_factory):
        tasks = independent_tasks()
        result = run(tasks, scheme_factory)
        for task_id in range(8):
            base = 0x100000 + task_id * 0x4000
            for i in range(3):
                assert result.memory.load((base + i * 64) >> 2) == (
                    task_id * 100 + i
                )

    @pytest.mark.parametrize("scheme_factory", ALL_SCHEMES)
    def test_parallel_beats_sequential_on_independent_tasks(
        self, scheme_factory
    ):
        tasks = independent_tasks(count=16, size=12)
        sequential, _ = simulate_sequential(tasks, TLS_DEFAULTS)
        result = run(tasks, scheme_factory)
        assert result.cycles < sequential


class TestForwarding:
    @pytest.mark.parametrize("scheme_factory", ALL_SCHEMES)
    def test_child_reads_parent_speculative_data(self, scheme_factory):
        """Eager communication: the child consumes the parent's
        pre-spawn store before the parent commits, without error."""
        parent = TlsTask(
            0,
            [store(0x8000, 42), compute(5), compute(500)],
            spawn_cursor=2,
        )
        child = TlsTask(1, [load(0x8000), compute(5)], spawn_cursor=0)
        result = run([parent, child], scheme_factory)
        assert result.stats.committed_tasks == 2
        assert result.memory.load(0x8000 >> 2) == 42


class TestViolations:
    def writer_then_reader(self):
        """Task 0 writes X *after* spawning task 1; task 1 reads X early
        — a genuine RAW violation in every scheme."""
        parent = TlsTask(
            0,
            [compute(5), compute(200), store(0xC000, 9), compute(200)],
            spawn_cursor=1,
        )
        child = TlsTask(1, [load(0xC000), compute(400)], spawn_cursor=0)
        return [parent, child]

    @pytest.mark.parametrize("scheme_factory", ALL_SCHEMES)
    def test_violation_squashes_and_recovers(self, scheme_factory):
        result = run(self.writer_then_reader(), scheme_factory)
        assert result.stats.committed_tasks == 2
        assert result.stats.squashes >= 1
        assert result.memory.load(0xC000 >> 2) == 9

    @pytest.mark.parametrize("scheme_factory", ALL_SCHEMES)
    def test_squash_propagates_to_children(self, scheme_factory):
        tasks = self.writer_then_reader()
        # A grandchild reading nothing conflicting still restarts when
        # its parent (task 1) is squashed.
        tasks[1] = TlsTask(
            1, [load(0xC000), compute(5), compute(400)], spawn_cursor=1
        )
        tasks.append(TlsTask(2, [load(0xF000), compute(300)], spawn_cursor=0))
        result = run(tasks, scheme_factory)
        assert result.stats.committed_tasks == 3
        assert result.stats.squashes >= 2  # the victim and its child


class TestPartialOverlap:
    def parent_child_live_in(self):
        """The Figure 9 pattern: the parent writes the child's live-in
        *before* spawning; the child reads it immediately."""
        parent = TlsTask(
            0,
            [store(0xD000, 5), compute(5), compute(600)],
            spawn_cursor=2,
        )
        child = TlsTask(1, [load(0xD000), compute(30)], spawn_cursor=0)
        return [parent, child]

    def test_bulk_with_overlap_does_not_squash(self):
        result = run(self.parent_child_live_in(), lambda: TlsBulkScheme(True))
        assert result.stats.squashes == 0

    def test_bulk_without_overlap_squashes(self):
        result = run(self.parent_child_live_in(), lambda: TlsBulkScheme(False))
        assert result.stats.squashes >= 1
        assert result.stats.committed_tasks == 2

    def test_lazy_exact_overlap_does_not_squash(self):
        result = run(self.parent_child_live_in(), TlsLazyScheme)
        assert result.stats.squashes == 0

    def test_eager_does_not_squash(self):
        result = run(self.parent_child_live_in(), TlsEagerScheme)
        assert result.stats.squashes == 0

    def test_overlap_only_covers_first_child(self):
        """A *grandchild* reading the parent's pre-spawn data is squashed
        even under Partial Overlap (supported only for the first child)."""
        parent = TlsTask(
            0, [store(0xD000, 5), compute(5), compute(800)], spawn_cursor=2
        )
        child = TlsTask(1, [compute(5), compute(400)], spawn_cursor=1)
        grandchild = TlsTask(2, [load(0xD000), compute(200)], spawn_cursor=0)
        result = run([parent, child, grandchild], lambda: TlsBulkScheme(True))
        assert result.stats.committed_tasks == 3
        assert result.stats.squashes >= 1


class TestWordMerging:
    @pytest.mark.parametrize("scheme_factory", ALL_SCHEMES)
    def test_two_tasks_update_different_words_of_one_line(
        self, scheme_factory
    ):
        """Section 4.4: word-granularity disambiguation lets both updates
        survive, merged in commit order."""
        first = TlsTask(
            0, [compute(5), store(0xE000, 1), compute(100)], spawn_cursor=0
        )
        second = TlsTask(
            1, [store(0xE020, 2), compute(300)], spawn_cursor=0
        )
        result = run([first, second], scheme_factory)
        assert result.stats.committed_tasks == 2
        assert result.memory.load(0xE000 >> 2) == 1
        assert result.memory.load(0xE020 >> 2) == 2

    def test_bulk_merge_counted(self):
        first = TlsTask(
            0, [compute(5), store(0xE000, 1), compute(400)], spawn_cursor=0
        )
        second = TlsTask(
            1,
            [store(0xE020, 2), compute(30), load(0xE020), compute(600)],
            spawn_cursor=0,
        )
        result = run([first, second], lambda: TlsBulkScheme(True))
        assert result.stats.committed_tasks == 2
        # The second task held a dirty copy of the line when the first
        # committed: the Updated Word Bitmask path merged them.
        assert result.stats.merged_lines >= 1
        assert result.memory.load(0xE000 >> 2) == 1
        assert result.memory.load(0xE020 >> 2) == 2


class TestSchedulerAccounting:
    def test_scheduler_counters_with_metrics_on(self):
        """The run loop drains the scheduler's heap directly and credits
        its own pushes and stale pops once; the ``scheduler.*`` counters
        must end where per-entry ``push``/``pop`` calls leave them.  The
        values were counted that way (crafty, 16 tasks, seed 5, all four
        schemes into one registry)."""
        obs = Observability()
        run_tls_comparison("crafty", num_tasks=16, seed=5, obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["scheduler.pushes"] == 11685
        assert counters["scheduler.pops"] == 11685
        assert counters["scheduler.stale_pops"] == 100
