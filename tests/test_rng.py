import numpy as np

from sprinkled_nls import rng

# frozen: SeedSequence derivation is specified and stable across platforms
SUBSTREAM_0_0 = 228566938027350531518154623208366831806
SUBSTREAM_7_3 = 174017184805672530979618255768871629917


def test_generator_is_deterministic():
    a = rng.generator(42).standard_normal(16)
    b = rng.generator(42).standard_normal(16)
    np.testing.assert_array_equal(a, b)
    assert float(rng.generator(42).uniform()) == 0.7739560485559633


def test_substream_seed_frozen_values():
    assert rng.substream_seed(0, 0) == SUBSTREAM_0_0
    assert rng.substream_seed(7, 3) == SUBSTREAM_7_3


def test_substream_seeds_distinct():
    seeds = {rng.substream_seed(5, i) for i in range(2000)}
    assert len(seeds) == 2000
    assert rng.substream_seed(5, 0) != rng.substream_seed(6, 0)


def test_substream_order_free():
    """Draws from one substream do not depend on other substreams."""
    direct = rng.generator(rng.substream_seed(9, 2)).standard_normal(8)
    rng.generator(rng.substream_seed(9, 5)).standard_normal(100)
    again = rng.generator(rng.substream_seed(9, 2)).standard_normal(8)
    np.testing.assert_array_equal(direct, again)


def test_substreams_nest():
    inner = rng.substream_seed(rng.substream_seed(1, 2), 3)
    assert inner != rng.substream_seed(1, 2)
    assert inner != rng.substream_seed(1, 3)


def test_generator_accepts_large_seeds():
    g = rng.generator(SUBSTREAM_0_0)
    assert np.isfinite(g.standard_normal())
