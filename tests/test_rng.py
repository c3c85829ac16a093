import numpy as np
import pytest

from sprinkled_nls import rng, studies
from sprinkled_nls.errors import ConfigError

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


ORACLE_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**62, 2**64 + 1, 2**130 + 17]


@pytest.mark.parametrize("master", ORACLE_MASTERS)
def test_vectorised_derivation_matches_seed_sequence(master):
    """Both levels equal numpy's SeedSequence: (master, i) -> substream seed,
    and that seed -> PCG64's four seed words, at the first indices, across a
    chunk boundary and at the last index."""
    chunk = studies.SWEEP_CHUNK
    for start, stop in ((0, 2), (chunk - 1, chunk + 1), (2**32 - 1, 2**32)):
        derived = rng.substream_seeds(master, start, stop)
        assert len(derived) == stop - start
        for i, seed in zip(range(start, stop), derived):
            oracle = np.random.SeedSequence((master, i))
            words = oracle.generate_state(4, dtype=np.uint32)
            assert rng.substream_seed(master, i) == \
                int.from_bytes(words.tobytes(), "little")
            pcg_words = np.random.SeedSequence(
                rng.substream_seed(master, i)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(
                seed.generate_state(4, np.uint64), pcg_words)


def test_derived_seed_draws_as_its_integer_seed():
    [derived] = rng.substream_seeds(2**62 + 5, 700, 701)
    np.testing.assert_array_equal(
        rng.generator(derived).standard_normal(16),
        rng.generator(rng.substream_seed(2**62 + 5, 700)).standard_normal(16))


def test_out_of_range_seeds_and_indices_raise_config_error():
    """A negative master seed, or an index outside [0, 2**32), is a
    configuration problem; numpy's SeedSequence would take an index of 2**32
    as two words, which the one-word derivation does not."""
    for args in ((-1, 0), (0, -1), (0, 2**32), (5, 2**40)):
        with pytest.raises(ConfigError):
            rng.substream_seed(*args)
    with pytest.raises(ConfigError):
        rng.substream_seeds(-1, 0, 4)
    with pytest.raises(ConfigError):
        rng.substream_seeds(0, 2**32 - 1, 2**32 + 1)
