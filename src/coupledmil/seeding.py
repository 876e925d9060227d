"""Named RNG streams derived from a single run seed.

Each consumer of randomness (data generation, augmentation, noise, init,
shuffling, splits) gets its own stream, so toggling one feature never
perturbs the draws seen by another.
"""

from __future__ import annotations

import numpy as np

STREAM_IDS = {
    "data": 0,
    "init": 1,
    "augment": 2,
    "noise": 3,
    "shuffle": 4,
    "split": 5,
    "distill": 6,
}


def rng_stream(seed: int, name: str) -> np.random.Generator:
    """Generator for the named stream of a run seed."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), STREAM_IDS[name])))


def subseed(seed: int, name: str) -> int:
    """Stable integer sub-seed for APIs that take a plain seed."""
    ss = np.random.SeedSequence((int(seed), STREAM_IDS[name]))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
