"""Figure 12 — the two SPECjbb2000 code patterns that hurt Eager.

(a) Two threads read-modify-write the same location: under Eager with
    requester-wins resolution they squash each other forever (no forward
    progress) until the footnote-2 mitigation steps in; under Lazy the
    first committer simply wins.
(b) A transaction reads A and would commit first; another stores A later.
    Eager squashes the reader at the store; Lazy commits both without any
    squash.

``repro fig12``, ``tests/analysis/test_fig12.py`` and the
``eager_pathologies`` example all run these scenarios.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import SimulationError
from repro.sim.trace import ThreadTrace, compute, load, store, tx_begin, tx_end
from repro.tm.eager import EagerScheme
from repro.tm.lazy import LazyScheme
from repro.tm.params import TmParams
from repro.tm.system import TmRunResult, TmSystem


def figure_12a_threads() -> List[ThreadTrace]:
    """Two threads doing ``ld A ... st A`` with work after the store."""

    def thread(tid: int) -> ThreadTrace:
        return ThreadTrace(
            tid,
            [tx_begin(), load(0x5000), compute(30), store(0x5000, tid),
             compute(120), tx_end()],
        )

    return [thread(0), thread(1)]


def figure_12b_threads() -> List[ThreadTrace]:
    """A reader that would commit first and a writer storing in between."""
    reader = ThreadTrace(
        0, [tx_begin(), load(0xA000), compute(300), tx_end()]
    )
    writer = ThreadTrace(
        1,
        [tx_begin(), compute(100), store(0xA000, 9), compute(600), tx_end()],
    )
    return [reader, writer]


def run_all_cases() -> Tuple[Dict[str, str], TmRunResult, TmRunResult,
                             TmRunResult, TmRunResult]:
    """Run every Figure 12 scenario.

    Returns a case -> outcome summary, then the mitigated Eager and the
    Lazy run of (a) and the Eager and Lazy runs of (b).
    """
    results = {}
    # (a) Eager without mitigation: livelock, detected by the restart cap.
    try:
        TmSystem(
            figure_12a_threads(),
            EagerScheme(),
            TmParams(eager_livelock_mitigation=False, max_attempts_per_txn=30),
        ).run()
        results["12a-eager-unmitigated"] = "completed (unexpected)"
    except SimulationError:
        results["12a-eager-unmitigated"] = "livelock detected"
    # (a) Eager with the footnote-2 mitigation: completes.
    mitigated = TmSystem(
        figure_12a_threads(),
        EagerScheme(),
        TmParams(eager_livelock_mitigation=True, max_attempts_per_txn=30),
    ).run()
    results["12a-eager-mitigated"] = (
        f"completed, {mitigated.stats.squashes} squashes, "
        f"{mitigated.stats.mitigation_stalls} stalls"
    )
    # (a) Lazy: committer wins, bounded squashes.
    lazy_a = TmSystem(figure_12a_threads(), LazyScheme()).run()
    results["12a-lazy"] = f"completed, {lazy_a.stats.squashes} squashes"
    # (b) squash in Eager but not in Lazy.
    eager_b = TmSystem(figure_12b_threads(), EagerScheme()).run()
    lazy_b = TmSystem(figure_12b_threads(), LazyScheme()).run()
    results["12b-eager"] = f"{eager_b.stats.squashes} squashes"
    results["12b-lazy"] = f"{lazy_b.stats.squashes} squashes"
    return results, mitigated, lazy_a, eager_b, lazy_b
