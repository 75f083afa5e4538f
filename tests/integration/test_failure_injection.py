"""Failure injection: break a protocol piece, watch an oracle catch it.

The correctness instrumentation (stale-read oracle, sequential-semantics
witness) is only trustworthy if it actually fires when the protocol is
wrong.  These tests surgically disable one mechanism at a time and
assert that the corresponding oracle detects the damage — the same
failures these oracles caught for real during development.
"""

import pytest

from repro.analysis.experiments import run_tls_comparison
from repro.core.bdm import BulkDisambiguationModule
from repro.errors import SimulationError
from repro.sim.trace import ThreadTrace, compute, load, store, tx_begin, tx_end
from repro.spec import scheme_names
from repro.tls.bulk import TlsBulkScheme
from repro.tls.lazy import TlsLazyScheme
from repro.tls.system import TlsSystem
from repro.tls.task import TlsTask
from repro.tm.bulk import BulkScheme
from repro.tm.lazy import LazyScheme
from repro.tm.system import TmSystem


class TestBrokenCommitInvalidation:
    def test_tm_skipping_commit_invalidation_trips_the_oracle(self, monkeypatch):
        """If receivers stop invalidating the committer's lines, a later
        reload observes stale data and the stale-read oracle fires."""
        monkeypatch.setattr(
            LazyScheme, "commit_update_receiver",
            lambda self, system, committer, receiver: None,
        )
        reader = ThreadTrace(0, [load(0xB000), compute(600), load(0xB000)])
        writer = ThreadTrace(
            1, [compute(50), tx_begin(), store(0xB000, 5), tx_end()]
        )
        with pytest.raises(SimulationError, match="stale read"):
            TmSystem([reader, writer], LazyScheme()).run()

    def test_tm_bulk_without_commit_invalidation_trips_the_oracle(
        self, monkeypatch
    ):
        original = BulkDisambiguationModule.commit_invalidate
        monkeypatch.setattr(
            BulkDisambiguationModule,
            "commit_invalidate",
            lambda self, cache, committed_write, **kwargs: (0, 0, 0, 0),
        )
        del original
        reader = ThreadTrace(0, [load(0xB000), compute(600), load(0xB000)])
        writer = ThreadTrace(
            1, [compute(50), tx_begin(), store(0xB000, 5), tx_end()]
        )
        with pytest.raises(SimulationError, match="stale read"):
            TmSystem([reader, writer], BulkScheme()).run()


class TestMissedTrueConflict:
    def test_tm_bulk_that_misses_a_conflict_fails_the_commit(self):
        """A Bulk that clears every receiver lets a reader commit past a
        writer that overwrote its line.  Commit invalidation drops the
        stale copy, so no later load can trip the stale-read oracle; the
        commit's one-sided check must."""

        class BlindBulk(BulkScheme):
            def receiver_conflict(self, system, committer, receiver):
                return None

        reader = ThreadTrace(
            0, [tx_begin(), load(0xB000), compute(600), tx_end()]
        )
        writer = ThreadTrace(
            1, [compute(50), tx_begin(), store(0xB000, 5), tx_end()]
        )
        with pytest.raises(
            SimulationError,
            match=(
                "Bulk missed a true conflict: committing txn 1 wrote line "
                "0x2c0, which txn 0 accessed"
            ),
        ):
            TmSystem([reader, writer], BlindBulk()).run()

    def test_tls_bulk_that_misses_a_conflict_fails_the_commit(self):
        """A TLS Bulk that clears every receiver lets a child commit
        after reading a word its parent later wrote.  The child read the
        word before the store, so no stale-read oracle and no final-memory
        check sees it; the commit's one-sided check must."""

        class BlindBulk(TlsBulkScheme):
            def receiver_conflict(self, system, committer, receiver):
                return False

        parent = TlsTask(
            0, [compute(5), compute(300), store(0xC000, 5)], spawn_cursor=1
        )
        child = TlsTask(1, [load(0xC000), compute(50)], spawn_cursor=0)
        with pytest.raises(
            SimulationError,
            match=(
                "Bulk missed a true conflict: committing task 0 wrote word "
                "0x3000, which task 1 accessed"
            ),
        ):
            TlsSystem([parent, child], BlindBulk()).run()


class TestSpuriousLazyConflict:
    def test_tm_lazy_that_reports_a_spurious_conflict_fails_the_commit(self):
        """A Lazy that reports every receiver squashes a transaction that
        shares no line with the committer.  The run still ends with the
        right memory, so only the commit's exact-overlap check sees it."""

        class AlarmistLazy(LazyScheme):
            def receiver_conflict(self, system, committer, receiver):
                return 0

        reader = ThreadTrace(
            0, [tx_begin(), load(0xB000), compute(600), tx_end()]
        )
        writer = ThreadTrace(
            1, [compute(50), tx_begin(), store(0xC000, 5), tx_end()]
        )
        with pytest.raises(
            SimulationError,
            match=(
                "Lazy reported a conflict with no overlap: committing txn 1 "
                "wrote no line txn 0 accessed"
            ),
        ):
            TmSystem([reader, writer], AlarmistLazy()).run()

    def test_tls_lazy_that_reports_a_spurious_conflict_fails_the_commit(self):
        """A TLS Lazy that reports every receiver squashes a child that
        read no word its parent wrote; the commit's exact-overlap check
        must catch it."""

        class AlarmistLazy(TlsLazyScheme):
            def receiver_conflict(self, system, committer, receiver):
                return True

        parent = TlsTask(
            0, [compute(5), compute(300), store(0xC000, 5)], spawn_cursor=1
        )
        child = TlsTask(1, [load(0xD000), compute(50)], spawn_cursor=0)
        with pytest.raises(
            SimulationError,
            match=(
                "Lazy reported a conflict with no overlap: committing task 0 "
                "wrote no word task 1 accessed"
            ),
        ):
            TlsSystem([parent, child], AlarmistLazy()).run()


class TestBrokenTlsDirtyRule:
    def test_paper_dirty_rule_fails_word_grain_tls(self, monkeypatch):
        """Re-disable the writeback-invalidate fix (restoring the paper's
        literal Section 4.3 rule) and reproduce the stale value the
        oracle caught: tasks committing different words of one line in
        sequence leave the first committer's dirty copy stale."""
        original = BulkDisambiguationModule.commit_invalidate

        def papers_rule(self, cache, committed_write, **kwargs):
            kwargs["invalidate_nonspec_dirty"] = False
            return original(self, cache, committed_write, **kwargs)

        monkeypatch.setattr(
            BulkDisambiguationModule, "commit_invalidate", papers_rule
        )

        line = 0x3000
        # Task 0 (proc A) writes word 0 and later re-reads it; task 1
        # (proc B) writes word 1 of the same line and commits second;
        # task 2 runs on proc A afterwards and reads word 1.
        first = TlsTask(
            0,
            [compute(5), store(line, 7), compute(200)],
            spawn_cursor=1,
        )
        second = TlsTask(
            1,
            [store(line + 4, 9), compute(400)],
            spawn_cursor=0,
        )
        # The leading compute delays the read past task 1 commit, so
        # no squash repairs the stale copy.
        third = TlsTask(
            2,
            [compute(460), load(line + 4), compute(10)],
            spawn_cursor=0,
        )
        tasks = [first, second, third]
        # With the fix the run passes; without it, whether the oracle
        # trips depends on processor placement of task 2 — run several
        # placements by varying processor count and accept either a
        # stale-read detection or (if placement avoided the stale copy)
        # a clean run, but require that at least one configuration trips.
        tripped = False
        for processors in (2, 3, 4):
            from repro.tls.params import TlsParams

            params = TlsParams(num_processors=processors)
            try:
                TlsSystem(
                    [TlsTask(t.task_id, t.events, t.spawn_cursor) for t in tasks],
                    TlsBulkScheme(True),
                    params,
                ).run()
            except SimulationError as error:
                assert "stale" in str(error)
                tripped = True
        assert tripped, (
            "the paper's dirty-line rule should leave a stale copy in "
            "at least one placement"
        )

    def test_fixed_rule_passes_same_workload(self):
        line = 0x3000
        tasks = [
            TlsTask(0, [compute(5), store(line, 7), compute(200)], 1),
            TlsTask(1, [store(line + 4, 9), compute(400)], 0),
            TlsTask(2, [compute(460), load(line + 4), compute(10)], 0),
        ]
        from repro.tls.params import TlsParams

        for processors in (2, 3, 4):
            result = TlsSystem(
                [TlsTask(t.task_id, t.events, t.spawn_cursor) for t in tasks],
                TlsBulkScheme(True),
                TlsParams(num_processors=processors),
            ).run()
            assert result.memory.load((line + 4) >> 2) == 9


class TestBrokenSquashInvalidation:
    def test_tls_keeping_squashed_lines_trips_an_oracle(self, monkeypatch):
        """A squashed task that does not drop its read lines re-reads
        stale forwarded data after its (re-executed) predecessor changed
        it — either oracle (stale-read at commit or final-memory) fires."""
        monkeypatch.setattr(
            TlsBulkScheme, "squash_cleanup",
            lambda self, system, proc, state: None,
        )
        parent = TlsTask(
            0,
            [compute(5), compute(200), store(0xC000, 9), compute(200)],
            spawn_cursor=1,
        )
        child = TlsTask(
            1, [load(0xC000), compute(100), load(0xC000), compute(300)],
            spawn_cursor=0,
        )
        try:
            result = TlsSystem([parent, child], TlsBulkScheme(True)).run()
        except SimulationError as error:
            assert "stale" in str(error) or "livelock" in str(error)
        else:
            # If no oracle fired, the run must at least be value-correct
            # (the squash re-read path may have refetched by luck).
            assert result.memory.load(0xC000 >> 2) == 9


class TestBrokenTlsCommitWriteback:
    def test_commit_that_skips_a_logged_word_fails_the_comparison(
        self, monkeypatch
    ):
        """The last task's commit leaves one logged word out of memory.
        No later task loads it, so no stale-read oracle can fire; the
        comparison's check against the sequential run's memory must."""
        original = TlsSystem._commit
        skipped = []

        def commit_skipping_a_word(self, state):
            if state.task_id != len(self.tasks) - 1:
                return original(self, state)
            word = min(
                w for w, value in state.write_log.items()
                if value != self.memory.load(w)
            )
            before = self.memory.load(word)
            original(self, state)
            self.memory.store(word, before)
            skipped.append(word)

        monkeypatch.setattr(TlsSystem, "_commit", commit_skipping_a_word)
        with pytest.raises(SimulationError) as caught:
            run_tls_comparison("gzip", num_tasks=8, seed=42)
        first_scheme = scheme_names("tls")[0]
        assert skipped and str(caught.value).startswith(
            f"TLS gzip: {first_scheme} ends with word {skipped[0]:#x} = "
        )
