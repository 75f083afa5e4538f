"""Tests for the checkpointed processor's primitives.

:class:`~repro.checkpoint.CheckpointSystem` is one checkpointed
processor; ``run()`` composes the primitives driven by hand here.  Each
test runs its body under every checkpoint scheme.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CHECKPOINT_DEFAULTS, CheckpointSystem
from repro.coherence.message import MessageKind
from repro.errors import SimulationError
from repro.spec import resolve_scheme, scheme_names


def processors(max_checkpoints=CHECKPOINT_DEFAULTS.max_live_checkpoints):
    """One idle processor (no epoch stream) per checkpoint scheme."""
    params = replace(CHECKPOINT_DEFAULTS, max_live_checkpoints=max_checkpoints)
    return [
        CheckpointSystem(resolve_scheme("checkpoint", name), [], params)
        for name in scheme_names("checkpoint")
    ]


class TestLifecycle:
    def test_requires_a_checkpoint_to_execute(self):
        for processor in processors():
            with pytest.raises(SimulationError):
                processor.store(0x100, 1)
            with pytest.raises(SimulationError):
                processor.load(0x100)

    def test_context_exhaustion(self):
        for processor in processors(max_checkpoints=2):
            processor.take_checkpoint()
            processor.take_checkpoint()
            with pytest.raises(SimulationError):
                processor.take_checkpoint()

    def test_commit_without_checkpoint_rejected(self):
        for processor in processors():
            with pytest.raises(SimulationError):
                processor.commit_oldest()

    def test_rollback_to_unknown_checkpoint_rejected(self):
        for processor in processors():
            processor.take_checkpoint()
            with pytest.raises(SimulationError):
                processor.rollback_to(99)


class TestSpeculationSemantics:
    def test_speculative_stores_invisible_until_commit(self):
        for processor in processors():
            processor.take_checkpoint()
            processor.store(0x400, 7)
            assert processor.memory.load(0x400 >> 2) == 0
            assert processor.load(0x400) == 7
            processor.commit_oldest()
            assert processor.memory.load(0x400 >> 2) == 7

    def test_newest_checkpoint_wins_reads(self):
        for processor in processors():
            processor.take_checkpoint()
            processor.store(0x400, 1)
            processor.take_checkpoint()
            processor.store(0x400, 2)
            assert processor.load(0x400) == 2

    def test_rollback_restores_state_at_checkpoint(self):
        for processor in processors():
            processor.take_checkpoint()
            processor.store(0x400, 1)
            mid = processor.take_checkpoint()
            processor.store(0x400, 2)
            processor.store(0x800, 9)
            assert processor.rollback_to(mid) == 1
            assert len(processor.live) == 1
            # The mid epoch's writes are gone.
            assert processor.load(0x400) == 1
            assert processor.load(0x800) == 0

    def test_rollback_cascades_through_younger_epochs(self):
        for processor in processors():
            processor.take_checkpoint()
            processor.store(0x400, 1)
            target = processor.take_checkpoint()
            processor.store(0x400, 2)
            processor.take_checkpoint()
            processor.store(0x400, 3)
            assert processor.rollback_to(target) == 2
            assert processor.load(0x400) == 1

    def test_rollback_of_everything_leaves_idle_processor(self):
        for processor in processors():
            base = processor.take_checkpoint()
            processor.store(0x400, 5)
            processor.rollback_to(base)
            assert not processor.live
            assert processor.memory.load(0x400 >> 2) == 0
            assert processor.value_of(0x400) == 0
            with pytest.raises(SimulationError):
                processor.load(0x400)

    def test_rollback_then_new_checkpoint_reuses_contexts(self):
        for processor in processors(max_checkpoints=2):
            processor.take_checkpoint()
            for attempt in range(5):
                young = processor.take_checkpoint()
                processor.store(0x1000, attempt)
                processor.rollback_to(young)
            assert len(processor.live) == 1

    def test_commit_all_applies_in_order(self):
        for processor in processors():
            processor.take_checkpoint()
            processor.store(0x400, 1)
            processor.take_checkpoint()
            processor.store(0x400, 2)
            while processor.live:
                processor.commit_oldest()
            assert processor.memory.load(0x400 >> 2) == 2

    def test_set_restriction_safe_writebacks_counted(self):
        """A non-speculative dirty line in the target set is written back
        before a Bulk store proceeds (the Set Restriction); the exact
        baseline has no such restriction and leaves it dirty."""
        for processor in processors():
            bulk = processor.scheme.name == "Bulk"
            target = 0x400 >> 6
            planted = target + processor.cache.geometry.num_sets
            assert processor.cache.set_index(planted) == (
                processor.cache.set_index(target)
            )
            processor.cache.fill(planted, [0] * 16, dirty=True)
            processor.take_checkpoint()
            processor.store(0x400, 2)
            assert processor.stats.safe_writebacks == int(bulk)
            assert processor.cache.lookup(planted).dirty is not bulk
            counts = processor.bus.bandwidth.message_counts
            assert counts[MessageKind.WRITEBACK] == int(bulk)
            assert counts[MessageKind.FILL] == 1


class TestPropertyRandomPrograms:
    @settings(max_examples=30, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(
                st.tuples(st.just("store"),
                          st.integers(0, 15), st.integers(1, 100)),
                st.tuples(st.just("checkpoint"), st.just(0), st.just(0)),
                st.tuples(st.just("rollback"), st.just(0), st.just(0)),
                st.tuples(st.just("commit"), st.just(0), st.just(0)),
            ),
            max_size=40,
        )
    )
    def test_matches_a_reference_model(self, operations):
        """The checkpointed processor agrees with a plain dict-stack
        reference for any operation sequence, under every scheme."""
        for processor in processors(max_checkpoints=8):
            committed = {}
            stack = []  # list of (checkpoint_id, dict)
            for op, slot, value in operations:
                address = 0x4000 + slot * 64
                if op == "store":
                    if not stack:
                        continue
                    processor.store(address, value)
                    stack[-1][1][address] = value
                elif op == "checkpoint":
                    if len(stack) >= 8:
                        continue
                    cid = processor.take_checkpoint()
                    stack.append((cid, {}))
                elif op == "rollback":
                    if not stack:
                        continue
                    cid, _ = stack.pop()  # discard the youngest epoch
                    processor.rollback_to(cid)
                elif op == "commit":
                    if not stack:
                        continue
                    cid, log = stack.pop(0)
                    processor.commit_oldest()
                    committed.update(log)
            # Compare the visible value of every touched slot.
            for slot in range(16):
                address = 0x4000 + slot * 64
                expected = committed.get(address, 0)
                for _, log in stack:
                    if address in log:
                        expected = log[address]
                assert processor.value_of(address) == expected, (
                    processor.scheme.name
                )
