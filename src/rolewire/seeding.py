"""Deterministic sub-seed derivation.

All randomness in the package flows from one u64 seed. Independent tasks
(teacher draws, random partitions, generator noise) get their own streams
via numpy's SeedSequence hashed on the (seed, task_index) pair, which is
stable across platforms and versions of this package.
"""

from __future__ import annotations

import numpy as np


def derive_seed(seed: int, task_index: int) -> int:
    """Sub-seed for task number `task_index` under the master `seed`."""
    return int(np.random.SeedSequence([seed, task_index]).generate_state(1)[0])


def rng_for(seed: int, task_index: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, task_index))
