#!/usr/bin/env python3
"""Figure 12 live: why SPECjbb2000 prefers lazy conflict detection.

(a) Two threads read-modify-write the same counter.  Under Eager with
    requester-wins resolution they squash each other forever; the
    paper's footnote-2 mitigation (stall the shorter-running thread)
    restores progress.  Under Lazy the first committer simply wins.
(b) A reader that would commit first is squashed by a later writer
    under Eager, but commits cleanly under Lazy.

Run:  python examples/eager_pathologies.py
"""

from repro.analysis.fig12 import figure_12a_threads, figure_12b_threads
from repro.errors import SimulationError
from repro.tm.eager import EagerScheme
from repro.tm.lazy import LazyScheme
from repro.tm.params import TmParams
from repro.tm.system import TmSystem


def main() -> None:
    print("=== Figure 12(a): symmetric read-modify-write ===")
    try:
        TmSystem(
            figure_12a_threads(),
            EagerScheme(),
            TmParams(eager_livelock_mitigation=False, max_attempts_per_txn=30),
        ).run()
        print("eager, unmitigated : completed (unexpected!)")
    except SimulationError as error:
        print(f"eager, unmitigated : LIVELOCK — {error}")

    mitigated = TmSystem(
        figure_12a_threads(),
        EagerScheme(),
        TmParams(eager_livelock_mitigation=True),
    ).run()
    print(f"eager, mitigated   : completed with "
          f"{mitigated.stats.squashes} squashes and "
          f"{mitigated.stats.mitigation_stalls} stalls")

    lazy = TmSystem(figure_12a_threads(), LazyScheme()).run()
    print(f"lazy               : completed with {lazy.stats.squashes} "
          "squashes (committer wins)\n")

    print("=== Figure 12(b): reader-then-writer ===")
    eager_b = TmSystem(figure_12b_threads(), EagerScheme()).run()
    lazy_b = TmSystem(figure_12b_threads(), LazyScheme()).run()
    print(f"eager : {eager_b.stats.squashes} squash(es) — the reader is "
          "killed by the later store")
    print(f"lazy  : {lazy_b.stats.squashes} squashes — the reader commits "
          "before the writer, so the conflict never materialises")


if __name__ == "__main__":
    main()
