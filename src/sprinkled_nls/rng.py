"""Deterministic random-number plumbing.

Every stochastic routine in the package takes an integer seed and builds its
generator through this module, so identical seeds give bit-identical output.
Monte-Carlo sweeps draw through ``studies.poisson_sweep``: sample i uses the
substream (master seed, i).  The derivation is order-free, so sweeps can be
chunked or parallelized without changing any draw.
"""
from __future__ import annotations

import numpy as np

__all__ = ["generator", "substream_seed"]


def generator(seed: int) -> np.random.Generator:
    """PCG64 generator for an integer seed (fixed across platforms)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def substream_seed(master_seed: int, index: int) -> int:
    """Derived integer seed for sample `index` of a sweep under `master_seed`."""
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    state = ss.generate_state(4, dtype=np.uint32)
    return int.from_bytes(state.tobytes(), "little")
