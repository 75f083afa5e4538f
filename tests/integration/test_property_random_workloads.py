"""Property-based system tests: hypothesis-generated random workloads.

The strategies build small, arbitrary (but well-formed) TM and TLS
workloads; the properties assert the system-level invariants for every
scheme: everything commits, counts agree across schemes, and TLS final
memory equals the sequential replay.  Shrinking gives minimal
counterexamples when a protocol bug slips in — these tests caught several
during development.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mem.address import WORD_TO_LINE_SHIFT
from repro.sim.trace import ThreadTrace, compute, load, store, tx_begin, tx_end
from repro.spec import RunConfig, resolve_scheme, scheme_names
from repro.tls.bulk import TlsBulkScheme
from repro.tls.eager import TlsEagerScheme
from repro.tls.lazy import TlsLazyScheme
from repro.tls.system import TlsSystem
from repro.tls.task import TlsTask
from repro.tm.bulk import BulkScheme
from repro.tm.eager import EagerScheme
from repro.tm.lazy import LazyScheme
from repro.tm.system import TmSystem

#: A tiny pool of addresses, so random workloads conflict often.
ADDRESSES = st.integers(min_value=0, max_value=15).map(lambda i: 0x4000 + i * 68)


@st.composite
def tm_transactions(draw):
    """One thread's trace: 1-3 transactions of 1-6 accesses."""
    events = []
    for txn in range(draw(st.integers(1, 3))):
        events.append(tx_begin())
        for _ in range(draw(st.integers(1, 6))):
            address = draw(ADDRESSES)
            if draw(st.booleans()):
                events.append(load(address))
            else:
                events.append(store(address, draw(st.integers(1, 1000))))
        if draw(st.booleans()):
            events.append(compute(draw(st.integers(1, 80))))
        events.append(tx_end())
    return events


@st.composite
def tm_workloads(draw):
    threads = draw(st.integers(2, 4))
    return [
        ThreadTrace(tid, draw(tm_transactions())) for tid in range(threads)
    ]


@st.composite
def tls_workloads(draw):
    count = draw(st.integers(2, 6))
    tasks = []
    for task_id in range(count):
        events = []
        for _ in range(draw(st.integers(1, 8))):
            address = draw(ADDRESSES)
            if draw(st.booleans()):
                events.append(load(address))
            else:
                events.append(store(address, draw(st.integers(1, 1000))))
        if draw(st.booleans()):
            events.append(compute(draw(st.integers(1, 100))))
        spawn = draw(st.integers(0, len(events)))
        tasks.append(TlsTask(task_id, events, spawn_cursor=spawn))
    return tasks


COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRandomTmWorkloads:
    @settings(**COMMON)
    @given(workload=tm_workloads())
    def test_all_schemes_commit_everything(self, workload):
        expected = sum(t.transaction_count() for t in workload)
        for scheme_cls in (EagerScheme, LazyScheme, BulkScheme):
            traces = [ThreadTrace(t.thread_id, t.events) for t in workload]
            result = TmSystem(traces, scheme_cls()).run()
            assert result.stats.committed_transactions == expected

    @settings(**COMMON)
    @given(workload=tm_workloads())
    def test_commit_replay_witness(self, workload):
        for scheme_cls in (EagerScheme, LazyScheme, BulkScheme):
            traces = [ThreadTrace(t.thread_id, t.events) for t in workload]
            system = TmSystem(traces, scheme_cls())
            result = system.run()
            assert system.replay_serial_reference() == result.memory

    @settings(**COMMON)
    @given(workload=tm_workloads())
    def test_partial_rollback_is_inert_without_nesting(self, workload):
        # The generator's transactions never nest, so partial rollback
        # has no section to act on: run_tm_comparison relies on this to
        # give Bulk-Partial a copy of Bulk's run on such workloads.
        assert all(trace.max_depth == 1 for trace in workload)
        for bus in ("legacy", "timed:latency=3,policy=round-robin"):
            outcomes = []
            for partial in (False, True):
                result = TmSystem(
                    workload,
                    BulkScheme(partial_rollback=partial),
                    config=RunConfig(bus=bus),
                ).run()
                outcomes.append(
                    (
                        result.cycles,
                        result.stats,
                        result.commit_order,
                        result.memory.snapshot(),
                    )
                )
            assert outcomes[0] == outcomes[1]


class InvariantCheckingTlsSystem(TlsSystem):
    """A TLS system that checks, before every commit, the two invariants
    its fast paths rely on: the active-task scan may stop at
    ``next_dispatch``, and each task's written-line index matches its
    write set."""

    def _commit(self, state):
        active = self.active_tasks()
        assert active == [s for s in self.tasks[self.head:] if s.is_active()]
        for task in active:
            assert task.write_lines() == {
                word >> WORD_TO_LINE_SHIFT for word in task.write_log
            }
        super()._commit(state)


class TestRandomTlsWorkloads:
    @staticmethod
    def sequential_reference(tasks):
        memory = {}
        for task in tasks:
            for event in task.events:
                if event.kind.value == "store":
                    memory[event.address >> 2] = event.value
        return {k: v for k, v in memory.items() if v != 0}

    @settings(**COMMON)
    @given(workload=tls_workloads())
    def test_all_schemes_match_sequential_semantics(self, workload):
        reference = self.sequential_reference(workload)
        for factory in (
            TlsEagerScheme,
            TlsLazyScheme,
            lambda: TlsBulkScheme(True),
            lambda: TlsBulkScheme(False),
        ):
            tasks = [
                TlsTask(t.task_id, t.events, t.spawn_cursor) for t in workload
            ]
            result = TlsSystem(tasks, factory()).run()
            assert result.stats.committed_tasks == len(workload)
            observed = {
                k: v for k, v in result.memory.snapshot().items() if v != 0
            }
            assert observed == reference

    @settings(**COMMON)
    @given(workload=tls_workloads())
    def test_active_scan_and_line_index_hold_at_every_commit(self, workload):
        for name in scheme_names("tls", include_variants=True):
            tasks = [
                TlsTask(t.task_id, t.events, t.spawn_cursor) for t in workload
            ]
            result = InvariantCheckingTlsSystem(
                tasks, resolve_scheme("tls", name)
            ).run()
            assert result.stats.committed_tasks == len(workload)
