import json

import numpy as np
import pytest
from scipy.integrate import quad

from sprinkled_nls.point_process import (AtomicMeasure,
                                         bernoulli_laplace_functional,
                                         empirical_laplace_functional,
                                         fixed_count_laplace_functional,
                                         load_atoms_json,
                                         poisson_laplace_functional,
                                         sample_bernoulli_crystal, sample_comb,
                                         sample_fixed_count, sample_poisson,
                                         save_atoms_csv, save_atoms_json,
                                         smoothed_indicator)

# frozen closed forms exp(-int (1 - e^-phi)) for smoothed indicators of [0, 1]
# at heights 1/2, 1, 2 (50-digit arithmetic, ramp 0.05)
POISSON_LF = {0.5: 0.67361132387599199, 1.0: 0.52871672872201869,
              2.0: 0.41553092249423335}
# frozen (1 + I/10)^10 for the height-2 indicator on a length-10 window
FIXED_LF_N10 = 0.39884696750647242


def test_atomic_measure_validation():
    with pytest.raises(ValueError):
        AtomicMeasure((1.0, -1.0), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        AtomicMeasure((-1.0, 1.0), np.array([2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        AtomicMeasure((-1.0, 1.0), np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        AtomicMeasure((-1.0, 1.0), np.array([np.nan]), np.array([1.0]))


def test_atomic_measure_sorts_atoms():
    mu = AtomicMeasure((-2.0, 2.0), np.array([1.0, -1.0, 0.0]),
                       np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(mu.positions, [-1.0, 0.0, 1.0])
    np.testing.assert_array_equal(mu.masses, [2.0, 3.0, 1.0])
    assert mu.count == 3
    assert mu.total_mass() == 6.0


def test_empty_measure_allowed():
    mu = AtomicMeasure((-1.0, 1.0), np.array([]), np.array([]))
    assert mu.count == 0
    assert mu.total_mass() == 0.0


def test_sample_poisson_deterministic():
    a = sample_poisson((-32.0, 32.0), 1.0, 7)
    b = sample_poisson((-32.0, 32.0), 1.0, 7)
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.count == 67  # frozen draw for this seed; mean is 64
    assert np.all(a.masses == 1.0)
    assert np.all((a.positions >= -32.0) & (a.positions <= 32.0))


def test_sample_poisson_rejects_bad_args():
    with pytest.raises(ValueError):
        sample_poisson((1.0, -1.0), 1.0, 0)
    with pytest.raises(ValueError):
        sample_poisson((-1.0, 1.0), 0.0, 0)


def test_sample_comb_hits_integers():
    mu = sample_comb((-3.0, 3.0))
    np.testing.assert_array_equal(mu.positions, [-3, -2, -1, 0, 1, 2, 3])
    assert np.all(mu.masses == 1.0)


def test_bernoulli_crystal_full_probability_is_comb():
    mu = sample_bernoulli_crystal((-4.0, 4.0), 0.5, 1.0, seed=0)
    np.testing.assert_allclose(mu.positions, 0.5 * np.arange(-8, 9))


def test_bernoulli_crystal_thins():
    mu = sample_bernoulli_crystal((-50.0, 50.0), 1.0, 0.25, seed=3)
    assert 0 < mu.count < 101
    assert set(mu.positions).issubset(set(float(k) for k in range(-50, 51)))


def test_fixed_count_exact_and_empty():
    mu = sample_fixed_count((-5.0, 5.0), 12, seed=4)
    assert mu.count == 12
    assert sample_fixed_count((-5.0, 5.0), 0, seed=4).count == 0
    with pytest.raises(ValueError):
        sample_fixed_count((-5.0, 5.0), -1, seed=4)


def test_smoothed_indicator_shape():
    phi = smoothed_indicator(0.0, 1.0, height=2.0)
    lo, hi = phi.support
    assert (lo, hi) == (-0.025, 1.025)
    assert phi(np.array([0.5]))[0] == 2.0
    assert phi(np.array([-1.0]))[0] == 0.0
    # edge midpoints sit halfway up the ramp
    assert phi(np.array([0.0]))[0] == pytest.approx(1.0, rel=1e-14)
    val, _ = quad(lambda x: phi(np.array([x]))[0], lo, hi,
                  points=phi.breakpoints, limit=200)
    assert val == pytest.approx(2.0, rel=1e-12)  # exact area height*(b-a)


def test_smoothed_indicator_validation():
    with pytest.raises(ValueError):
        smoothed_indicator(1.0, 0.0)
    with pytest.raises(ValueError):
        smoothed_indicator(0.0, 1.0, height=-1.0)
    with pytest.raises(ValueError):
        smoothed_indicator(0.0, 0.01, ramp=0.05)


@pytest.mark.parametrize("height", [0.5, 1.0, 2.0])
def test_poisson_laplace_functional_frozen(height):
    phi = smoothed_indicator(0.0, 1.0, height=height)
    assert poisson_laplace_functional(phi) == pytest.approx(
        POISSON_LF[height], rel=1e-6)


def test_bernoulli_laplace_functional_small_product():
    """Five lattice sites hit the support; the product is checked by hand."""
    phi = smoothed_indicator(0.0, 1.0, height=2.0)
    got = bernoulli_laplace_functional(phi, 0.25, 0.25)
    edge = 1.0 + 0.25 * (np.exp(-1.0) - 1.0)
    middle = 1.0 + 0.25 * (np.exp(-2.0) - 1.0)
    assert got == pytest.approx(edge**2 * middle**3, rel=1e-14)


def test_fixed_count_laplace_functional_frozen():
    phi = smoothed_indicator(0.0, 1.0, height=2.0)
    got = fixed_count_laplace_functional(phi, (-1.0, 9.0), 10)
    assert got == pytest.approx(FIXED_LF_N10, rel=1e-6)


def test_fixed_count_requires_support_inside_window():
    phi = smoothed_indicator(0.0, 1.0)
    with pytest.raises(ValueError):
        fixed_count_laplace_functional(phi, (0.5, 9.0), 10)


def test_laplace_ladders_approach_poisson():
    """Both non-Poisson families converge to the Poisson value."""
    phi = smoothed_indicator(0.0, 1.0, height=2.0)
    target = poisson_laplace_functional(phi)
    bern = [abs(bernoulli_laplace_functional(phi, p, p) - target)
            for p in (0.25, 0.0625, 0.015625)]
    assert bern[0] > bern[1] > bern[2]
    fixed = [abs(fixed_count_laplace_functional(phi, (-1.0, w - 1.0), w) - target)
             for w in (10, 100, 1000)]
    assert fixed[0] > fixed[1] > fixed[2]


def test_empirical_laplace_functional_matches_closed_form():
    phi = smoothed_indicator(0.0, 1.0, height=2.0)
    (mean,), (se,) = empirical_laplace_functional(
        lambda s: sample_poisson((-1.0, 2.0), 1.0, s), [phi], 2000, seed=99)
    assert se < 0.02
    assert abs(mean - poisson_laplace_functional(phi)) <= 3 * se


def test_empirical_laplace_functional_reproducible():
    phis = [smoothed_indicator(0.0, 1.0), smoothed_indicator(0.5, 1.5)]
    sampler = lambda s: sample_poisson((0.0, 2.0), 1.0, s)
    a = empirical_laplace_functional(sampler, phis, 64, seed=5)
    b = empirical_laplace_functional(sampler, phis, 64, seed=5)
    np.testing.assert_array_equal(a, b)
    assert a[0].shape == a[1].shape == (2,)


def test_atoms_json_round_trip(tmp_path):
    mu = sample_poisson((-8.0, 8.0), 1.0, 21)
    path = tmp_path / "atoms.json"
    save_atoms_json(mu, path)
    back = load_atoms_json(path)
    assert back.window == mu.window
    np.testing.assert_array_equal(back.positions, mu.positions)
    np.testing.assert_array_equal(back.masses, mu.masses)


def test_atoms_csv_layout(tmp_path):
    mu = AtomicMeasure((-1.0, 1.0), np.array([-0.5, 0.25]),
                       np.array([1.0, 2.0]))
    path = tmp_path / "atoms.csv"
    save_atoms_csv(mu, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "position,mass"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == -0.5


def test_atoms_json_is_valid_json(tmp_path):
    mu = sample_fixed_count((-2.0, 2.0), 3, seed=1)
    path = tmp_path / "atoms.json"
    save_atoms_json(mu, path)
    doc = json.loads(path.read_text())
    assert doc["window"] == [-2.0, 2.0]
    assert len(doc["atoms"]) == 3
    assert all(len(pair) == 2 for pair in doc["atoms"])
