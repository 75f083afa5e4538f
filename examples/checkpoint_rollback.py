#!/usr/bin/env python3
"""Checkpointed execution — the paper's third environment, in action.

A processor speculates through a risky computation (say, value-predicted
loads, as in the paper's reference [5]): it takes a checkpoint, runs
ahead on a predicted value, and either commits the epoch when the
prediction verifies or rolls back and re-executes with the real value.
All of it built from the same Bulk primitives TM and TLS use: version
contexts, write signatures, and bulk invalidation of the discarded
epoch's dirty lines.

The processor is a ``CheckpointSystem`` under the Bulk scheme, driven by
hand through the primitives its ``run()`` composes over an epoch stream.
Every commit writes the committed lines back, so no non-speculative
dirty line is ever left in a set for the Set Restriction to write back:
the example ends with 0 safe writebacks.

Run:  python examples/checkpoint_rollback.py
"""

import random

from repro.checkpoint import BulkCheckpointScheme, CheckpointSystem

ARRAY = 0x10000
RESULT = 0x90000


def main() -> None:
    rng = random.Random(9)
    processor = CheckpointSystem(BulkCheckpointScheme(), epochs=[])
    # The "slow load" target values the processor will predict.
    true_values = [rng.randrange(100) for _ in range(12)]
    for i, value in enumerate(true_values):
        processor.memory.store((ARRAY >> 2) + i, value)

    running_sum = 0
    for i, true_value in enumerate(true_values):
        checkpoint = processor.take_checkpoint()
        predicted = 42  # a (bad) stride predictor
        # Run ahead using the prediction.
        speculative_sum = running_sum + predicted
        processor.store(RESULT, speculative_sum)
        processor.store(RESULT + 64 + i * 64, speculative_sum * 3)

        # The slow load returns; verify the prediction.
        if predicted == processor.load(ARRAY + 4 * i):
            processor.commit_oldest()
            running_sum = speculative_sum
            print(f"step {i:2d}: prediction {predicted} correct — commit")
        else:
            processor.rollback_to(checkpoint)  # discard the bad epoch
            processor.take_checkpoint()        # re-execute with the truth
            processor.store(RESULT, running_sum + true_value)
            processor.store(RESULT + 64 + i * 64, (running_sum + true_value) * 3)
            processor.commit_oldest()
            running_sum += true_value
            print(f"step {i:2d}: predicted {predicted}, actual {true_value} "
                  "— rollback, re-execute, commit")

    stats = processor.stats
    architectural = processor.memory.load(RESULT >> 2)
    print(f"\nfinal sum: {running_sum} (architectural: {architectural})")
    print(f"rollbacks: {stats.rollbacks}, lines invalidated by rollback: "
          f"{stats.rollback_invalidations} "
          f"({stats.false_rollback_invalidations} false), "
          f"safe writebacks: {stats.safe_writebacks}")
    assert architectural == running_sum
    assert running_sum == sum(true_values)
    print("checkpointed execution recovered every misprediction correctly.")


if __name__ == "__main__":
    main()
