import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from sprinkled_nls import rng
from sprinkled_nls.constants import CALIBRATION
from sprinkled_nls.field import Grid, evaluate_at, l2_norm, random_field
from sprinkled_nls.measure import (_occupied_interval_masses, block_norm, chi,
                                   save_profile_csv, weight_profile,
                                   weighted_l2_norm)
from sprinkled_nls.point_process import AtomicMeasure, sample_poisson

# frozen quad of exp(-2x^2) * max(4, 5-|x|); the single-atom weight is exact
GAUSS_UNIT_ATOM_WSQ = 5.777212204202916


def atoms(*positions, masses=None, window=(-10.0, 10.0)):
    pos = np.asarray(positions, dtype=float)
    mas = np.ones_like(pos) if masses is None else np.asarray(masses, float)
    return AtomicMeasure(window, pos, mas)


# --- interval masses ---

def test_interval_mass_half_open():
    """An atom exactly on k + 1/2 belongs to the next interval."""
    p = weight_profile(atoms(0.5))
    np.testing.assert_array_equal(p.nk_squared(np.array([1, 0])), [5.0, 4.0])


def test_interval_mass_sums_atoms():
    """All three atoms lie in I_0 = [-1/2, 1/2) and pool to mu(I_0), added
    in position order: 3.5, or exactly (0.1 + 0.2) + 0.3 for masses whose
    floating-point sum depends on the order."""
    mu = atoms(-0.4, 0.1, 0.3, masses=[1.0, 2.0, 0.5])
    np.testing.assert_array_equal(
        weight_profile(mu).nk_squared(np.array([0, -1])),
        [4.0 + 3.5**2, 4.0 + 3.5**2 - 1.0])
    light = atoms(-0.4, 0.1, 0.3, masses=[0.1, 0.2, 0.3])
    assert _occupied_interval_masses(light)[1].tolist() == [(0.1 + 0.2) + 0.3]
    assert weight_profile(light).nk_squared(0) == 4.0 + ((0.1 + 0.2) + 0.3)**2


# --- weight law ---

def test_empty_measure_baseline():
    mu = atoms()
    p = weight_profile(mu)
    ks = np.arange(-30, 31)
    np.testing.assert_array_equal(p.nk_squared(ks), 4.0)
    x = np.linspace(-12.0, 12.0, 97)
    np.testing.assert_array_equal(p.weight(x), 4.0)


def test_single_unit_atom_weight_is_tent():
    """One unit mass at the origin gives w(x) = max(4, 5 - |x|)."""
    mu = atoms(0.0)
    x = np.linspace(-8.0, 8.0, 1601)
    p = weight_profile(mu)
    np.testing.assert_allclose(p.weight(x), np.maximum(4.0, 5.0 - np.abs(x)),
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(p.nk_squared(np.array([0, 1, -1, 2])),
                                  [5.0, 4.0, 4.0, 4.0])


def test_heavy_atom_peak_scales_with_squared_mass():
    mu = atoms(0.2, masses=[2.0])
    ks = np.arange(-6, 7)
    np.testing.assert_allclose(weight_profile(mu).nk_squared(ks),
                               4.0 + np.maximum(0.0, 4.0 - np.abs(ks)),
                               rtol=0, atol=1e-12)


def test_atoms_in_one_interval_pool_their_mass():
    together = atoms(0.1, 0.3)
    single = atoms(0.2, masses=[2.0])
    ks = np.arange(-6, 7)
    np.testing.assert_allclose(weight_profile(together).nk_squared(ks),
                               weight_profile(single).nk_squared(ks),
                               rtol=0, atol=1e-12)


def test_profile_extends_analytically():
    mu = atoms(0.0, masses=[3.0])  # peak 4 + 9 at k = 0
    p = weight_profile(mu)
    for k in (p.k_end + 1, p.k_end + 3, p.k_start - 2, 1000):
        expect = max(4.0, 13.0 - abs(k))
        assert p.nk_squared(np.array([k]))[0] == pytest.approx(expect, abs=1e-12)


finite_atoms = st.lists(
    st.tuples(st.floats(-8.0, 8.0), st.floats(0.1, 2.5)),
    min_size=1, max_size=6)


@given(finite_atoms)
def test_interval_masses_match_per_atom_loop(pairs):
    """The pooled masses equal an atom-by-atom sum in position order, bit for
    bit."""
    mu = atoms(*[p for p, _ in pairs], masses=[m for _, m in pairs])
    pooled: dict[int, float] = {}
    for y, m in zip(mu.positions, mu.masses):
        k = int(np.floor(y + 0.5))
        pooled[k] = pooled.get(k, 0.0) + float(m)
    ls, lmass = _occupied_interval_masses(mu)
    assert ls.tolist() == sorted(pooled)
    assert lmass.tolist() == [pooled[k] for k in sorted(pooled)]


@given(finite_atoms)
def test_weight_floor_and_lipschitz(pairs):
    """N_k^2 never drops below 4 and moves by at most 1 per unit interval."""
    mu = atoms(*[p for p, _ in pairs], masses=[m for _, m in pairs])
    ks = np.arange(-15, 16)
    v = weight_profile(mu).nk_squared(ks)
    assert np.all(v >= 4.0)
    assert np.all(np.abs(np.diff(v)) <= 1.0 + 1e-12)


@given(finite_atoms)
def test_weight_interpolates_nodes(pairs):
    mu = atoms(*[p for p, _ in pairs], masses=[m for _, m in pairs])
    p = weight_profile(mu)
    ks = np.arange(-12, 13)
    np.testing.assert_allclose(p.weight(ks.astype(float)),
                               p.nk_squared(ks), rtol=0, atol=1e-12)
    mid = ks[:-1] + 0.5
    np.testing.assert_allclose(
        p.weight(mid),
        0.5 * (p.nk_squared(ks[:-1]) + p.nk_squared(ks[1:])),
        rtol=0, atol=1e-12)


@given(finite_atoms, st.tuples(st.floats(-6.0, 6.0), st.floats(0.1, 2.5)))
def test_weight_monotone_in_measure(pairs, extra):
    """Adding an atom can only raise the weight."""
    mu = atoms(*[p for p, _ in pairs], masses=[m for _, m in pairs])
    grown = atoms(*([p for p, _ in pairs] + [extra[0]]),
                  masses=[m for _, m in pairs] + [extra[1]])
    ks = np.arange(-15, 16)
    assert np.all(weight_profile(grown).nk_squared(ks)
                  >= weight_profile(mu).nk_squared(ks) - 1e-12)


@given(finite_atoms, st.integers(-4, 4))
def test_weight_translation_covariance(pairs, shift):
    mu = atoms(*[p for p, _ in pairs], masses=[m for _, m in pairs])
    moved = atoms(*[p + shift for p, _ in pairs],
                  masses=[m for _, m in pairs], window=(-16.0, 16.0))
    ks = np.arange(-10, 11)
    np.testing.assert_allclose(weight_profile(moved).nk_squared(ks + shift),
                               weight_profile(mu).nk_squared(ks),
                               rtol=0, atol=1e-12)


# --- partition of unity ---

def test_chi_partition_of_unity():
    x = np.linspace(-5.0, 5.0, 2001)
    total = sum(chi(x, k) for k in range(-7, 8))
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-14)


def test_chi_support_and_sign():
    x = np.linspace(-3.0, 3.0, 1201)
    v = chi(x, 0)
    assert np.all(v[np.abs(x) >= 1.0] == 0.0)
    assert np.all(v >= 0.0)
    assert chi(np.array([0.0]), 0)[0] == 1.0


# --- weighted norms ---

def test_weighted_norm_single_atom_oracle(gauss, unit_atom):
    got = weighted_l2_norm(gauss, unit_atom) ** 2
    assert got == pytest.approx(GAUSS_UNIT_ATOM_WSQ, rel=1e-7)
    val, _ = quad(lambda x: np.exp(-2 * x * x) * max(4.0, 5.0 - abs(x)),
                  -30.0, 30.0, points=[-1.0, 0.0, 1.0], limit=400)
    assert got == pytest.approx(val, rel=1e-7)


def test_weighted_norm_empty_measure_is_doubled_l2(gauss):
    mu = AtomicMeasure((-16.0, 16.0), np.array([]), np.array([]))
    assert weighted_l2_norm(gauss, mu) == pytest.approx(2.0 * l2_norm(gauss),
                                                        rel=1e-12)


def test_weighted_norm_dominates_doubled_l2(gauss):
    """w >= 4 pointwise, so the weighted norm is at least 2 ||f||."""
    for seed in (1, 2, 3):
        mu = sample_poisson((-32.0, 32.0), 1.0, seed)
        assert weighted_l2_norm(gauss, mu) >= 2.0 * l2_norm(gauss) - 1e-12


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_block_and_weighted_norms_equivalent(gauss, seed):
    lo, hi = CALIBRATION["norm_equivalence_bracket"]
    mu = sample_poisson((-32.0, 32.0), 1.0, seed)
    ratio = block_norm(gauss, mu) / weighted_l2_norm(gauss, mu)
    assert lo <= ratio <= hi


def _gauss_legendre_weighted_sq(f, profile, order=24):
    """int_{-L}^{L} |p|^2 w by Gauss-Legendre on every piece between the
    integers and +-L, where w is linear."""
    L = f.grid.half_length
    edges = np.unique(np.concatenate(
        ([-L, L], np.arange(np.ceil(-L), np.floor(L) + 1))))
    t, wts = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * t).ravel()
    integrand = np.abs(evaluate_at(f, x)) ** 2 * profile.weight(x)
    return float(np.sum((half[:, None] * wts).ravel() * integrand))


@pytest.mark.parametrize("half_length, n, seed",
                         [(10.3, 1024, 1), (32.0, 4096, 2)])
def test_weighted_norm_matches_gauss_legendre(half_length, n, seed):
    """Exact to roundoff, also for a non-integer L whose integers are not
    grid nodes."""
    grid = Grid(half_length, n)
    f = random_field(grid, rng.generator(seed))
    mu = sample_poisson((-half_length, half_length), 1.0, seed)
    assert mu.count > 5
    want = _gauss_legendre_weighted_sq(f, weight_profile(mu))
    assert weighted_l2_norm(f, mu) ** 2 == pytest.approx(want, rel=1e-12)


def test_weighted_norm_accepts_precomputed_profile(gauss, unit_atom):
    p = weight_profile(unit_atom)
    a = weighted_l2_norm(gauss, unit_atom)
    b = weighted_l2_norm(gauss, unit_atom, profile=p)
    assert a == b


# --- serialization ---

def test_profile_csv(tmp_path, unit_atom):
    p = weight_profile(unit_atom)
    path = tmp_path / "profile.csv"
    save_profile_csv(p, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,nk_squared"
    ks, vals = zip(*(ln.split(",") for ln in lines[1:]))
    assert int(ks[0]) == p.k_start
    assert float(vals[p.k_start * -1]) == 5.0  # row for k = 0
