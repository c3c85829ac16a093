"""Deterministic random-number plumbing.

Every stochastic routine in the package takes a seed and builds its
generator through this module, so identical seeds give bit-identical output.
Monte-Carlo sweeps draw through ``studies.poisson_sweep``: sample i uses the
substream (master seed, i), i.e. the generator of
``substream_seed(master, i)``.  The derivation is order-free, so sweeps can
be chunked or parallelized without changing any draw.

The derivation is numpy's ``SeedSequence`` hash, stated once in
``_seed_hash`` on uint32 lanes so that a range of samples derives its seeds
in one vectorised pass, at both levels: (master, i) -> the integer
substream seed, and that seed -> the four PCG64 seed words that
``PCG64(substream_seed(master, i))`` would draw.  ``substream_seeds`` hands
the second level out as seed objects that ``generator`` accepts.  A pass
costs dozens of small array operations whatever its length, so the sweep
derives a ``studies.SEED_BLOCK`` of seeds per pass.
"""
from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import ConfigError

__all__ = ["generator", "substream_seed", "substream_seeds"]

# numpy's SeedSequence constants (pool of four 32-bit words)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


@functools.cache
def _hash_consts(init: int, mult: int, first: int, n: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k = first ... first + n, as a read-only
    column: the cache hands the same array to every call."""
    c = np.array([init * pow(mult, k, 1 << 32) & _MASK
                  for k in range(first, first + n + 1)], dtype=np.uint32)
    c.setflags(write=False)
    return c[:, None]


def _seed_hash(words: np.ndarray, n_out: int) -> np.ndarray:
    """numpy's SeedSequence on uint32 lanes: mix the (W, L) entropy words,
    one column (lane) per seed, into the pool of four words, then generate
    (n_out, L) state words.

    numpy's hash constant steps through init * mult^k whatever the data, so
    consecutive multiply-xorshifts run as one array operation: the four
    pool words, and each source word against its three destinations (a
    source is not changed while it feeds them).
    """
    calls = 0

    def hashmix(values):  # numpy's next len(values) hashmix calls
        nonlocal calls
        c = _hash_consts(_INIT_A, _MULT_A, calls, len(values))
        calls += len(values)
        v = (values ^ c[:-1]) * c[1:]
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return r ^ (r >> np.uint32(16))

    pool = np.zeros((_POOL, words.shape[1]), dtype=np.uint32)
    pool[:len(words)] = words[:_POOL]  # a missing word hashes as zero
    pool = hashmix(pool)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[[src] * len(dst)]))
    for word in words[_POOL:]:
        pool = mix(pool, hashmix(np.tile(word, (_POOL, 1))))
    c = _hash_consts(_INIT_B, _MULT_B, 0, n_out)
    v = (pool[np.arange(n_out) % _POOL] ^ c[:-1]) * c[1:]
    return v ^ (v >> np.uint32(16))


def _substream_words(master_seed: int, start: int, stop: int) -> np.ndarray:
    """The (4, L) uint32 words of substream seeds start ... stop-1: numpy
    hashes the entropy (master, i) as the master's 32-bit words, least
    significant first, then i's one word."""
    master = int(master_seed)
    if master < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {master}")
    if not 0 <= start <= stop <= 2**32:
        raise ConfigError("substream indices must lie in [0, 2**32)")
    head = [master >> s & _MASK
            for s in range(0, max(master.bit_length(), 1), 32)]
    words = np.empty((len(head) + 1, stop - start), dtype=np.uint32)
    words[:-1] = np.array(head, dtype=np.uint32)[:, None]
    words[-1] = np.arange(start, stop, dtype=np.uint32)
    return _seed_hash(words, 4)


class _SeedWords(ISeedSequence):
    """A derived seed: PCG64's four seed words, precomputed."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint64):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived seed holds only PCG64's four words")
        return self._state.copy()


def substream_seeds(master_seed: int, start: int, stop: int
                    ) -> list[ISeedSequence]:
    """Seeds of samples start ... stop-1 under `master_seed`, derived in one
    pass: ``generator(substream_seeds(m, i, i + 1)[0])`` draws exactly as
    ``generator(substream_seed(m, i))``.  A negative seed or an index
    outside [0, 2**32) raises ConfigError."""
    # the seed words hashed once more give PCG64's state: 8 uint32 words,
    # paired little-endian into 4 uint64
    state = _seed_hash(_substream_words(master_seed, start, stop),
                       8).astype(np.uint64)
    pcg_words = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)
    return list(map(_SeedWords, pcg_words))


def substream_seed(master_seed: int, index: int) -> int:
    """Derived integer seed for sample `index` of a sweep under `master_seed`;
    the one-lane case of ``substream_seeds``."""
    words = _substream_words(master_seed, int(index), int(index) + 1)[:, 0]
    return sum(int(w) << (32 * j) for j, w in enumerate(words))


def generator(seed: int | ISeedSequence) -> np.random.Generator:
    """PCG64 generator for a non-negative integer seed (wrapped in numpy's
    SeedSequence, fixed across platforms) or a seed of ``substream_seeds``."""
    return np.random.Generator(np.random.PCG64(seed))
