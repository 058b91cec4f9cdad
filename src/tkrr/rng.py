"""Counter-based random streams for reproducible, order-independent draws.

Each study in a scenario gets its own Philox stream keyed by (seed, study
index), so adding a source or changing one study's sample size never
perturbs the draws of any other study. derive_seed folds experiment
coordinates (base seed, sweep position, replication) into a stable 64-bit
seed via blake2b, keeping every replication cell independently seedable.
"""

from __future__ import annotations

import hashlib

import numpy as np
# NumPy loads numpy.random on first use. Every sweep draws from it, so it
# loads with tkrr, not inside a process's first cell.
from numpy.random import Generator, Philox

__all__ = ["derive_seed", "philox_stream", "TARGET_STREAM", "TEST_STREAM"]

_MASK64 = (1 << 64) - 1

TARGET_STREAM = 0
# Study streams are 0..m+3; the test stream sits far above any of them.
TEST_STREAM = 1 << 62


def derive_seed(*parts: int) -> int:
    """Hash integer coordinates into a 64-bit seed."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update((int(p) & _MASK64).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def philox_stream(seed: int, stream: int) -> Generator:
    """Generator on the Philox stream keyed by (seed, stream)."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return Generator(Philox(key=key))
