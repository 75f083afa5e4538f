"""SPECint2000-profile TLS task generators.

The paper runs POSH-compiled SPECint2000 binaries on the SESC simulator;
neither is available here, so each application is replaced by a task
generator calibrated to the *per-application task statistics the paper
itself reports* (Table 6): average read/write set sizes in words, small
dependence sets, fine-grain parent→child sharing (live-ins produced just
before the spawn — the behaviour that makes Partial Overlap worth 17%),
occasional genuine post-spawn dependences, and word-level false sharing
within lines (the Section 4.4 merge case).

Addresses are drawn from a large heap with per-task private regions plus
shared regions, with randomised placement so the address streams carry
the entropy real heaps have.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.mem.address import BYTES_PER_LINE, BYTES_PER_WORD
from repro.sim.trace import MemEvent, compute, load, store
from repro.tls.task import TlsTask


@dataclass(frozen=True)
class TlsAppProfile:
    """Task-shape parameters for one SPECint application.

    ``read_words`` / ``write_words`` target the Table 6 footprints (the
    generator's draw is randomised around them).  ``live_ins`` is the
    fine-grain parent→child transfer count; ``late_dep_prob`` the
    per-task probability of a genuine post-spawn dependence (a squash a
    correct scheme must take); ``line_share_prob`` the probability of
    word-level false sharing with the successor (exercising merging).
    """

    name: str
    read_words: int
    write_words: int
    live_ins: int
    late_dep_prob: float
    line_share_prob: float
    compute_cycles: int
    #: Probability that a task actually consumes its parent's live-ins
    #: *early* (before the parent commits) — the fine-grain sharing that
    #: Partial Overlap rescues.
    live_in_read_prob: float = 0.45
    #: Probability that a task spawns its successor only at its *end* —
    #: a poorly-parallelisable (effectively serial) program region.
    #: Profile-based TLS compilation leaves many of these; they are what
    #: bounds whole-application TLS speedups well below the processor
    #: count.
    late_spawn_prob: float = 0.4
    #: Lines in the application's shared heap region.
    heap_lines: int = 2048


#: The nine evaluated SPECint2000 applications (Table 6 footprints).
TLS_APPLICATIONS: Dict[str, TlsAppProfile] = {
    "bzip2": TlsAppProfile("bzip2", 30, 5, 2, 0.120, 0.02, 120, 0.30, 0.40),
    "crafty": TlsAppProfile("crafty", 109, 23, 4, 0.035, 0.03, 260, 0.40, 0.30),
    "gap": TlsAppProfile("gap", 42, 13, 3, 0.060, 0.03, 140, 0.28, 0.35),
    "gzip": TlsAppProfile("gzip", 14, 5, 2, 0.150, 0.02, 80, 0.30, 0.50),
    "mcf": TlsAppProfile("mcf", 12, 1, 1, 0.050, 0.01, 60, 0.20, 0.55),
    "parser": TlsAppProfile("parser", 30, 7, 3, 0.100, 0.05, 130, 0.35, 0.40),
    "twolf": TlsAppProfile("twolf", 41, 6, 2, 0.140, 0.03, 150, 0.30, 0.35),
    "vortex": TlsAppProfile("vortex", 35, 24, 4, 0.060, 0.06, 170, 0.35, 0.30),
    "vpr": TlsAppProfile("vpr", 43, 9, 2, 0.090, 0.03, 150, 0.28, 0.30),
}


def build_tls_workload(
    app: str,
    num_tasks: int = 200,
    seed: int = 0,
) -> List[TlsTask]:
    """Generate the task list for one application profile
    (``num_tasks`` must be at least 1)."""
    if app not in TLS_APPLICATIONS:
        raise ConfigurationError(
            f"unknown TLS application {app!r}; choose from "
            f"{sorted(TLS_APPLICATIONS)}"
        )
    if num_tasks < 1:
        raise ConfigurationError(f"num_tasks must be at least 1, got {num_tasks}")
    profile = TLS_APPLICATIONS[app]
    rng = random.Random((seed << 8) ^ (sum(map(ord, app)) & 0xFFFF))

    # Scatter every logical line over a large (256 MB) address range —
    # real heaps spread data across many address bits, and that entropy
    # is what keeps signature chunk values decorrelated (Section 7.5).
    total_lines = profile.heap_lines + (num_tasks + 2) + 64 + 64
    scattered = rng.sample(range(1 << 22), total_lines)
    heap_lines = scattered[: profile.heap_lines]
    mailbox_lines = scattered[
        profile.heap_lines : profile.heap_lines + num_tasks + 2
    ]
    shared_lines = scattered[
        profile.heap_lines + num_tasks + 2 : profile.heap_lines + num_tasks + 66
    ]
    late_lines = scattered[profile.heap_lines + num_tasks + 66 :]

    def mailbox_addr(task_id: int, slot: int) -> int:
        return mailbox_lines[task_id] * BYTES_PER_LINE + (
            slot % 16
        ) * BYTES_PER_WORD

    def heap_addr(line: int, word: int) -> int:
        return heap_lines[line % profile.heap_lines] * BYTES_PER_LINE + (
            word % 16
        ) * BYTES_PER_WORD

    tasks: List[TlsTask] = []
    for task_id in range(num_tasks):
        events: List[MemEvent] = []
        # Task sizes vary (load imbalance is what makes multi-versioned
        # caches worthwhile — Section 2).
        size_scale = 0.6 + 0.8 * rng.random()
        body_reads = max(0, int((profile.read_words - profile.live_ins) * size_scale))
        body_writes = max(1, int((profile.write_words - profile.live_ins) * size_scale))

        # 1. Consume the parent's live-ins.  Only some tasks read them
        #    before the parent commits; doing so early in the task is
        #    what creates the fine-grain overlap window.
        reads_live_ins_early = (
            task_id > 0 and rng.random() < profile.live_in_read_prob
        )
        if reads_live_ins_early:
            for slot in range(profile.live_ins):
                events.append(load(mailbox_addr(task_id - 1, slot)))
        # With some probability, also read the *late* cell a predecessor
        # may write after spawning — the genuine violation.
        reads_late = rng.random() < profile.late_dep_prob and task_id > 0
        if reads_late:
            events.append(
                load(late_lines[(task_id - 1) % 64] * BYTES_PER_LINE)
            )

        # 2. Produce the successor's live-ins, then spawn.  In a
        #    poorly-parallelisable region the spawn only happens at the
        #    end of the task (set below, after the body is generated).
        for slot in range(profile.live_ins):
            events.append(
                store(mailbox_addr(task_id, slot), task_id * 131 + slot)
            )
        events.append(compute(10))
        spawn_cursor = len(events)
        late_spawn = rng.random() < profile.late_spawn_prob

        # 3. Body: heap traffic with spatial locality — reads and writes
        #    walk words sequentially within clustered lines (the layout
        #    entropy that keeps signature chunk values decorrelated,
        #    Section 7.5).
        private_line = rng.randrange(profile.heap_lines)
        shared_cluster = rng.randrange(profile.heap_lines)
        for i in range(body_reads):
            if rng.random() < 0.7:
                line, word = private_line + i // 16, i % 16
            else:
                line, word = shared_cluster + i // 16, (i * 3) % 16
            events.append(load(heap_addr(line, word)))
            if i % 10 == 9:
                events.append(compute(profile.compute_cycles // 8 + 1))
        for i in range(body_writes):
            if rng.random() < 0.8:
                line, word = private_line + i // 16, i % 16
            else:
                line, word = rng.randrange(profile.heap_lines), i % 16
            events.append(store(heap_addr(line, word), task_id * 977 + i))
        # Tasks that skipped the early live-in read still consume the
        # data eventually — typically after the parent has committed, so
        # no violation arises.
        if task_id > 0 and not reads_live_ins_early:
            for slot in range(profile.live_ins):
                events.append(load(mailbox_addr(task_id - 1, slot)))

        # 4. Word-level false sharing: adjacent tasks write different
        #    words of the same shared line (Section 4.4 merging).
        if rng.random() < profile.line_share_prob:
            shared_line = shared_lines[task_id // 8 % 64] * BYTES_PER_LINE
            events.append(
                store(shared_line + (task_id % 16) * BYTES_PER_WORD, task_id)
            )

        # 5. Genuine post-spawn dependence: write the late cell the
        #    successor may have read early.
        if rng.random() < profile.late_dep_prob:
            events.append(
                store(
                    late_lines[task_id % 64] * BYTES_PER_LINE,
                    task_id * 31 + 7,
                )
            )
        events.append(compute(profile.compute_cycles // 2 + 5))
        if late_spawn:
            spawn_cursor = len(events)
        tasks.append(TlsTask(task_id, events, spawn_cursor=spawn_cursor))
    return tasks
