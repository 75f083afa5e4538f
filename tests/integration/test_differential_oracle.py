"""Differential testing of Bulk against the exact Eager/Lazy oracles.

The contract under test is the paper's superset-semantics guarantee:

* **No false negatives** — Bulk never misses a conflict that the exact
  schemes detect.  A missed conflict would be a correctness bug (a stale
  value could commit); the spy schemes below check it at *every*
  disambiguation event, not just end-to-end.
* **False positives are aliasing, and only cost performance** — every
  squash Bulk performs beyond the exact schemes' must be attributable to
  signature aliasing (the signatures intersect although the exact sets
  do not), and final architectural state must still be correct.
"""

import random

import pytest

from repro.core.backend import backend_names, resolve_backend
from repro.core.disambiguation import disambiguate
from repro.core.signature import Signature
from repro.core.signature_config import default_tm_config
from repro.sim.trace import EventKind
from repro.spec import RunConfig
from repro.tls.bulk import TlsBulkScheme
from repro.tls.eager import TlsEagerScheme
from repro.tls.system import TlsSystem
from repro.tm.bulk import BulkScheme
from repro.tm.eager import EagerScheme
from repro.tm.lazy import LazyScheme
from repro.tm.system import TmSystem
from repro.workloads.kernels import build_tm_workload
from repro.workloads.tls_spec import build_tls_workload

TM_GRID = [("mc", 11), ("mc", 23), ("cb", 11), ("sjbb2k", 47), ("moldyn", 5)]
TLS_GRID = [("gzip", 11), ("mcf", 23), ("vortex", 5)]


def _backend_params():
    """Every registered backend, skipping ones that would silently fall
    back (a degraded backend re-tests packed, not itself)."""
    params = []
    for name in backend_names():
        try:
            resolved = resolve_backend(name)
        except ImportError:  # pragma: no cover - no fallback configured
            params.append(
                pytest.param(name, marks=pytest.mark.skip(f"{name} unavailable"))
            )
            continue
        if resolved.name != name:
            params.append(
                pytest.param(
                    name,
                    marks=pytest.mark.skip(f"{name} fell back to {resolved.name}"),
                )
            )
        else:
            params.append(pytest.param(name))
    return params


SIG_BACKENDS = _backend_params()


# ----------------------------------------------------------------------
# Spy schemes: differential check at every disambiguation event
# ----------------------------------------------------------------------

class DifferentialTmBulk(BulkScheme):
    """Bulk, with every commit-time disambiguation checked against the
    exact address sets the simulator keeps anyway."""

    def __init__(self):
        super().__init__()
        self.events = 0
        self.aliased_conflicts = 0
        self.missed = []

    def receiver_conflict(self, system, committer, receiver):
        section = super().receiver_conflict(system, committer, receiver)
        assert committer.txn is not None and receiver.txn is not None
        exact = committer.txn.write_granules & (
            receiver.txn.read_granules | receiver.txn.write_granules
        )
        self.events += 1
        if exact and section is None:
            self.missed.append((committer.pid, receiver.pid, sorted(exact)))
        if section is not None and not exact:
            self.aliased_conflicts += 1
        return section


class DifferentialTlsBulk(TlsBulkScheme):
    """BulkNoOverlap, with commit-time disambiguation checked against the
    exact word sets (no-overlap mode so the write signature covers the
    whole write set and exactness is well-defined)."""

    def __init__(self):
        super().__init__(partial_overlap=False)
        self.events = 0
        self.aliased_conflicts = 0
        self.missed = []

    def receiver_conflict(self, system, committer, receiver):
        conflict = super().receiver_conflict(system, committer, receiver)
        exact = committer.write_log.keys() & (
            receiver.read_words | receiver.write_log.keys()
        )
        self.events += 1
        if exact and not conflict:
            self.missed.append(
                (committer.task_id, receiver.task_id, sorted(exact))
            )
        if conflict and not exact:
            self.aliased_conflicts += 1
        return conflict


# ----------------------------------------------------------------------
# Signature-level differential on seeded random address sets
# ----------------------------------------------------------------------

class TestSignatureLevelDifferential:
    @pytest.mark.parametrize("seed", [3, 17, 101, 9999])
    def test_equation_one_never_misses_exact_conflicts(self, seed):
        config = default_tm_config()
        rng = random.Random(seed)
        for _ in range(200):
            universe = rng.randrange(1, 1 << 26)
            draw = lambda n: frozenset(
                rng.randrange(universe) for _ in range(rng.randrange(n))
            )
            w_c, r_r, w_r = draw(24), draw(24), draw(12)
            outcome = disambiguate(
                Signature.from_addresses(config, w_c),
                Signature.from_addresses(config, r_r),
                Signature.from_addresses(config, w_r),
            )
            exact_raw = bool(w_c & r_r)
            exact_waw = bool(w_c & w_r)
            # No false negatives, term by term.
            if exact_raw:
                assert outcome.raw_conflict
            if exact_waw:
                assert outcome.waw_conflict
            # Any extra conflict must be signature aliasing: the encoded
            # registers really do intersect even though the sets do not.
            if outcome.squash and not (exact_raw or exact_waw):
                w_sig = Signature.from_addresses(config, w_c)
                assert w_sig.intersects(
                    Signature.from_addresses(config, r_r)
                ) or w_sig.intersects(Signature.from_addresses(config, w_r))


# ----------------------------------------------------------------------
# System-level differential: whole TM runs
# ----------------------------------------------------------------------

class TestTmDifferential:
    @pytest.mark.parametrize("sig_backend", SIG_BACKENDS)
    @pytest.mark.parametrize("app,seed", TM_GRID)
    def test_bulk_vs_exact_schemes(self, app, seed, sig_backend):
        def workload():
            return build_tm_workload(
                app, num_threads=4, txns_per_thread=4, seed=seed
            )

        spy = DifferentialTmBulk()
        bulk = TmSystem(
            workload(),
            spy,
            config=RunConfig(sig_backend=sig_backend),
        ).run()
        eager = TmSystem(workload(), EagerScheme()).run()
        lazy = TmSystem(workload(), LazyScheme()).run()

        # Every disambiguation with an exact dependence fired (no false
        # negatives at any commit event).
        assert spy.missed == []
        assert spy.events > 0

        # Extra Bulk squashes are pure aliasing, which the stats already
        # classify: the aliased disambiguations the spy saw are a subset
        # of the recorded false-positive squashes (non-speculative
        # invalidations can add more).
        assert spy.aliased_conflicts <= bulk.stats.false_positive_squashes

        # Aliasing costs performance, never progress or correctness.
        assert bulk.stats.committed_transactions == (
            eager.stats.committed_transactions
        )
        assert bulk.stats.committed_transactions == (
            lazy.stats.committed_transactions
        )
        assert bulk.stats.squashes >= bulk.stats.false_positive_squashes

    @pytest.mark.parametrize("app,seed", [("mc", 11), ("sjbb2k", 47)])
    def test_single_writer_words_match_exact_lazy(self, app, seed):
        def workload():
            return build_tm_workload(
                app, num_threads=4, txns_per_thread=4, seed=seed
            )

        traces = workload()
        writers = {}
        for trace in traces:
            for event in trace.events:
                if event.kind is EventKind.STORE:
                    writers.setdefault(event.address >> 2, set()).add(
                        trace.thread_id
                    )
        single_writer = {w for w, tids in writers.items() if len(tids) == 1}

        bulk = TmSystem(traces, DifferentialTmBulk()).run()
        lazy = TmSystem(workload(), LazyScheme()).run()
        for word in single_writer:
            assert bulk.memory.load(word) == lazy.memory.load(word)


# ----------------------------------------------------------------------
# System-level differential: whole TLS runs
# ----------------------------------------------------------------------

class TestTlsDifferential:
    @pytest.mark.parametrize("sig_backend", SIG_BACKENDS)
    @pytest.mark.parametrize("app,seed", TLS_GRID)
    def test_bulk_vs_exact_eager(self, app, seed, sig_backend):
        def workload():
            return build_tls_workload(app, num_tasks=40, seed=seed)

        spy = DifferentialTlsBulk()
        bulk = TlsSystem(
            workload(),
            spy,
            config=RunConfig(sig_backend=sig_backend),
        ).run()
        eager = TlsSystem(workload(), TlsEagerScheme()).run()

        assert spy.missed == []
        assert spy.events > 0
        assert bulk.stats.committed_tasks == eager.stats.committed_tasks

        # TLS commit order is the task order, so final memory is exactly
        # the sequential outcome — aliasing cannot perturb it.
        def nonzero(memory):
            return {k: v for k, v in memory.snapshot().items() if v != 0}

        assert nonzero(bulk.memory) == nonzero(eager.memory)


# ----------------------------------------------------------------------
# Trace reconciliation: traced bytes == simulator accounting, exactly
# ----------------------------------------------------------------------

class TestTraceReconciliation:
    """The tracer's ``bus.msg`` accounting and the simulator's
    :class:`~repro.coherence.bus.BandwidthBreakdown` are fed from the
    same ``Bus.record`` call, so per category, per scheme, the sums must
    agree **exactly** — not approximately."""

    @staticmethod
    def assert_reconciles(summary, scheme_name, breakdown):
        from repro.coherence.message import BandwidthCategory

        traced = summary["bus"][scheme_name]
        for category in BandwidthCategory:
            assert traced["bytes"].get(category.value, 0) == (
                breakdown.category_bytes(category)
            ), f"{scheme_name}/{category.value}"
        assert sum(traced["bytes"].values()) == breakdown.total_bytes
        assert traced["commit_bytes"] == breakdown.commit_bytes

    @pytest.mark.parametrize("app,seed", TM_GRID[:2])
    def test_tm_traced_bytes_match_breakdown(self, app, seed):
        from repro.obs import Observability

        for scheme_factory in (EagerScheme, LazyScheme, BulkScheme):
            obs = Observability()
            traces = build_tm_workload(
                app, num_threads=4, txns_per_thread=4, seed=seed
            )
            result = TmSystem(traces, scheme_factory(), obs=obs).run()
            self.assert_reconciles(
                obs.tracer.summary(),
                scheme_factory().name,
                result.stats.bandwidth,
            )

    @pytest.mark.parametrize("app,seed", TLS_GRID[:2])
    def test_tls_traced_bytes_match_breakdown(self, app, seed):
        from repro.obs import Observability
        from repro.tls.lazy import TlsLazyScheme

        for scheme_factory in (TlsEagerScheme, TlsLazyScheme, TlsBulkScheme):
            obs = Observability()
            tasks = build_tls_workload(app, num_tasks=40, seed=seed)
            result = TlsSystem(tasks, scheme_factory(), obs=obs).run()
            self.assert_reconciles(
                obs.tracer.summary(),
                scheme_factory().name,
                result.stats.bandwidth,
            )

    def test_commit_events_sum_to_commit_packet_bytes(self):
        """Summing the traced commit packets per scheme reproduces the
        histogram total and stays consistent with the bus commit bytes
        for the signature schemes (one commit packet per commit)."""
        from repro.obs import Observability

        events = []
        obs = Observability()
        obs.tracer.sink = events.append
        traces = build_tm_workload(
            "mc", num_threads=4, txns_per_thread=4, seed=11
        )
        result = TmSystem(traces, BulkScheme(), obs=obs).run()
        traced_packets = sum(
            e["packet_bytes"] for e in events if e["kind"] == "commit"
        )
        hist = obs.metrics.snapshot()["histograms"]["tm.commit_packet_bytes"]
        assert traced_packets == hist["total"]
        assert traced_packets == result.stats.bandwidth.commit_bytes


# ----------------------------------------------------------------------
# Whole-run backend identity: the storage strategy must not change runs
# ----------------------------------------------------------------------

class TestBackendRunIdentity:
    """Beyond per-event agreement, entire Bulk runs must be identical
    under every backend — cycles, squashes, commit order, final memory —
    because the backends differ only in signature *storage*."""

    @pytest.mark.parametrize("app,seed", TM_GRID[:2])
    def test_tm_bulk_runs_identical_across_backends(self, app, seed):
        def run(sig_backend):
            traces = build_tm_workload(
                app, num_threads=4, txns_per_thread=4, seed=seed
            )
            return TmSystem(
                traces,
                BulkScheme(),
                config=RunConfig(sig_backend=sig_backend),
            ).run()

        results = {
            p.values[0]: run(p.values[0]) for p in SIG_BACKENDS if not p.marks
        }
        reference = results["packed"]
        for name, result in results.items():
            assert result.cycles == reference.cycles, name
            assert result.stats.squashes == reference.stats.squashes, name
            assert result.commit_order == reference.commit_order, name
            assert result.memory.snapshot() == reference.memory.snapshot(), name

    @pytest.mark.parametrize("app,seed", TLS_GRID[:2])
    def test_tls_bulk_runs_identical_across_backends(self, app, seed):
        def run(sig_backend):
            tasks = build_tls_workload(app, num_tasks=40, seed=seed)
            return TlsSystem(
                tasks,
                TlsBulkScheme(),
                config=RunConfig(sig_backend=sig_backend),
            ).run()

        results = {
            p.values[0]: run(p.values[0]) for p in SIG_BACKENDS if not p.marks
        }
        reference = results["packed"]
        for name, result in results.items():
            assert result.cycles == reference.cycles, name
            assert result.stats.squashes == reference.stats.squashes, name
            assert result.memory.snapshot() == reference.memory.snapshot(), name
