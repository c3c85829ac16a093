import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

from sprinkled_nls import rng
from sprinkled_nls.constants import CALIBRATION
from sprinkled_nls.errors import ConfigError
from sprinkled_nls.field import (Grid, WaveField, evaluate_at, hat_moments,
                                 hat_pairing, interpolation_points, l2_norm,
                                 random_field)
from sprinkled_nls.measure import (_interval_masses, block_norm, chi,
                                   save_profile_csv, weight_profile,
                                   weighted_l2_norm)
from sprinkled_nls.point_process import (AtomicMeasure, PoissonBatch,
                                         sample_poisson)

# frozen quad of exp(-2x^2) * max(4, 5-|x|); the single-atom weight is exact
GAUSS_UNIT_ATOM_WSQ = 5.777212204202916


def atoms(*positions, masses=None, window=(-10.0, 10.0)):
    pos = np.asarray(positions, dtype=float)
    mas = np.ones_like(pos) if masses is None else np.asarray(masses, float)
    return AtomicMeasure(window, pos, mas)


def masses_table(measures, k_start, k_end):
    """_interval_masses over the measures' atoms, concatenated in order."""
    return _interval_masses(
        np.concatenate([mu.positions for mu in measures]),
        np.concatenate([mu.masses for mu in measures]),
        np.cumsum([0] + [mu.count for mu in measures]), k_start, k_end)


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
    assert masses_table([light], 0, 0).tolist() == [[(0.1 + 0.2) + 0.3]]
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


def _pooled(mu):
    """Interval masses by an atom-by-atom sum in position order."""
    pooled: dict[int, float] = {}
    for y, m in zip(mu.positions, mu.masses):
        k = int(np.floor(y + 0.5))
        pooled[k] = pooled.get(k, 0.0) + float(m)
    return pooled


@given(finite_atoms)
def test_interval_masses_match_per_atom_loop(pairs):
    """The pooled masses equal an atom-by-atom sum in position order, bit for
    bit, and the rows of one table never mix: a measure binned between an
    empty one and itself gives the same row twice."""
    mu = atoms(*[p for p, _ in pairs], masses=[m for _, m in pairs])
    pooled = _pooled(mu)
    table = masses_table([mu, atoms(), mu], -9, 9)
    want = [pooled.get(k, 0.0) for k in range(-9, 10)]
    assert table.tolist() == [want, [0.0] * 19, want]


def test_interval_masses_reject_atoms_outside_range():
    with pytest.raises(ValueError):
        masses_table([atoms(0.0), atoms(3.6)], -3, 3)


@pytest.mark.parametrize("k_start, k_end, rows", [
    (0, 2**63, 1), (-2**63 - 1, 0, 1), (0, 2**62, 2), (-10**300, 10**300, 1)])
def test_interval_masses_reject_ranges_beyond_int64(k_start, k_end, rows):
    """Keys (sample, interval) that do not fit int64 are far past the size
    ceiling, which raises ConfigError before any table is allocated; empty
    samples carry no atom to catch it."""
    with pytest.raises(ConfigError, match="ceiling"):
        _interval_masses(np.empty(0), np.empty(0), np.zeros(rows + 1, int),
                         k_start, k_end)


def test_huge_window_profile_is_a_value_error():
    with pytest.raises(ValueError, match="2\\*\\*52"):
        weight_profile(atoms(window=(-1.0, 1e300)))


def _direct_nk_squared(mu, ks):
    """The oracle: 4 + max(0, max_l m_l^2 - |k - l|), broadcast over all
    (k, l) pairs of integers and occupied intervals."""
    pooled = _pooled(mu)
    if not pooled:
        return np.full(ks.size, 4.0)
    ls = np.array(sorted(pooled), dtype=np.int64)
    lmass = np.array([pooled[k] for k in sorted(pooled)])
    contrib = lmass[None, :] ** 2 - np.abs(ks[:, None] - ls[None, :])
    return 4.0 + np.maximum(0.0, contrib.max(axis=1))


@pytest.mark.parametrize("window, positions", [
    ((2.0**52 - 6.0, 2.0**52), [2.0**52 - 6.0, 2.0**52 - 0.5, 2.0**52]),
    ((-2.0**52, -2.0**52 + 5.5), [-2.0**52, -2.0**52 + 0.5, -2.0**52 + 5.5])])
def test_profile_on_windows_touching_the_reach(window, positions):
    """Atoms on the edges of a window that touches +-2^52 fall in its own
    intervals [floor(a), ceil(b)], so the profile needs no widening and
    equals the direct formula, past its edges too."""
    mu = atoms(*positions, masses=[3.0, 1.5, 2.0], window=window)
    ks = np.arange(int(window[0]) - 20, int(window[1]) + 21)
    assert weight_profile(mu).nk_squared(ks).tolist() == \
        _direct_nk_squared(mu, ks).tolist()


envelope_masses = st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 10.0),
                            st.floats(10.0, 60.0))
# coinciding fractions put several atoms in one interval
envelope_atoms = st.lists(
    st.tuples(st.one_of(st.floats(0.0, 1.0),
                        st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])),
              envelope_masses), max_size=20)


@given(st.floats(-40.0, 40.0), st.floats(0.5, 30.0),
       st.lists(envelope_atoms, min_size=1, max_size=3), st.integers(0, 80))
def test_envelope_equals_direct_formula(lo, width, rows, reach):
    """weight_profile gives the direct formula bit for bit at every integer
    up to ``reach`` past the window's intervals: the doubling envelope
    inside, its continuation outside.  Per measure with any masses, and per
    row of a PoissonBatch of the same positions with unit masses."""
    window = (lo, lo + width)
    measures = [atoms(*[lo + u * width for u, _ in row],
                      masses=[m for _, m in row], window=window)
                for row in rows]
    k_start, k_end = int(np.floor(lo)), int(np.ceil(lo + width))
    ks = np.arange(k_start - reach, k_end + reach + 1)
    for mu in measures:
        assert weight_profile(mu).nk_squared(ks).tolist() == \
            _direct_nk_squared(mu, ks).tolist()
    batch = PoissonBatch(window, np.concatenate(
        [np.empty(0)] + [mu.positions for mu in measures]),
        np.cumsum([0] + [mu.count for mu in measures]))
    assert weight_profile(batch).nk_squared(ks).tolist() == [
        _direct_nk_squared(atoms(*mu.positions, window=window), ks).tolist()
        for mu in measures]


@pytest.mark.parametrize("window", [
    (-32.0, 32.0), (-40.5, 5.5), (0.25, 0.75), (2.0**52 - 40.0, 2.0**52)])
def test_batch_profile_rows_equal_sample_profiles(window):
    """Each row of a batch's profile is its sample's own profile bit for
    bit, at and past the window's intervals, empty samples included."""
    drawn = sample_poisson(window, 1.0, rng.substream_seeds(11, 0, 20))
    o = drawn.offsets
    # empty samples first, after the fourth and last
    batch = PoissonBatch(window, drawn.positions,
                         np.concatenate([[0], o[:5], o[4:], o[-1:]]))
    assert np.diff(batch.offsets)[[0, 5, -1]].tolist() == [0, 0, 0]
    assert drawn.positions.size > 0
    k_start, k_end = int(np.floor(window[0])), int(np.ceil(window[1]))
    ks = np.arange(k_start - 12, k_end + 13)
    got = weight_profile(batch).nk_squared(ks)
    assert got.shape == (len(batch), ks.size)
    for j, row in enumerate(got):
        assert row.tolist() == \
            weight_profile(batch.measure(j)).nk_squared(ks).tolist()


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

def l2mu(f, profile):
    """The weighted norm of f against the profile, through the profile's
    pairing on f's grid."""
    return weighted_l2_norm(f, hat_pairing(f.grid, profile.nk_squared))


def test_weighted_norm_single_atom_oracle(gauss, unit_atom):
    got = l2mu(gauss, weight_profile(unit_atom)) ** 2
    assert got == pytest.approx(GAUSS_UNIT_ATOM_WSQ, rel=1e-7)
    val, _ = quad(lambda x: np.exp(-2 * x * x) * max(4.0, 5.0 - abs(x)),
                  -30.0, 30.0, points=[-1.0, 0.0, 1.0], limit=400)
    assert got == pytest.approx(val, rel=1e-7)


def test_weighted_norm_empty_measure_is_doubled_l2(gauss):
    mu = AtomicMeasure((-16.0, 16.0), np.array([]), np.array([]))
    assert l2mu(gauss, weight_profile(mu)) == pytest.approx(
        2.0 * l2_norm(gauss), rel=1e-12)


def test_weighted_norm_dominates_doubled_l2(gauss):
    """w >= 4 pointwise, so the weighted norm is at least 2 ||f||."""
    for seed in (1, 2, 3):
        mu = sample_poisson((-32.0, 32.0), 1.0, seed)
        assert l2mu(gauss, weight_profile(mu)) >= 2.0 * l2_norm(gauss) - 1e-12


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_block_and_weighted_norms_equivalent(gauss, seed):
    lo, hi = CALIBRATION["norm_equivalence_bracket"]
    mu = sample_poisson((-32.0, 32.0), 1.0, seed)
    profile = weight_profile(mu)
    ratio = block_norm(gauss, profile) / l2mu(gauss, profile)
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
    values = evaluate_at(f, interpolation_points(f.grid, x))
    integrand = np.abs(values) ** 2 * profile.weight(x)
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
    profile = weight_profile(mu)
    want = _gauss_legendre_weighted_sq(f, profile)
    assert l2mu(f, profile) ** 2 == pytest.approx(want, rel=1e-12)


@given(half_length=st.sampled_from([4.0, 7.6, 10.3, 16.0]),
       n=st.sampled_from([4, 8, 64, 512]), seed=st.integers(0, 2**32 - 1),
       inner=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 6.0)),
                      max_size=6),
       ends=st.sets(st.sampled_from([-1.0, 1.0])))
@example(half_length=16.0, n=512, seed=0, inner=[], ends=set())
@example(half_length=16.0, n=64, seed=1, inner=[], ends={-1.0, 1.0})
@example(half_length=7.6, n=8, seed=2, inner=[(0.1, 3.0)], ends={-1.0, 1.0})
def test_hat_pairing_matches_the_forward_map(half_length, n, seed, inner,
                                             ends):
    """The weighted norm's functional, built once for a grid and a profile,
    is the adjoint of the hat moments: it equals sum_k N_k^2 h_k(f) on any
    field, for integer and non-integer L, an empty measure, and heavy atoms
    at +-L, where the clipped G terms carry weight."""
    grid = Grid(half_length, n)
    gen = rng.generator(seed)
    f = WaveField(grid, gen.standard_normal(n) + 1j * gen.standard_normal(n))
    mu = atoms(*[half_length * y for y, _ in inner],
               *[half_length * e for e in sorted(ends)],
               masses=[m for _, m in inner] + [4.0] * len(ends),
               window=(-half_length, half_length))
    profile = weight_profile(mu)
    ks, h = hat_moments(f)
    want = profile.nk_squared(ks) @ h
    pairing = hat_pairing(grid, profile.nk_squared)
    assert pairing(f) == pytest.approx(want, rel=1e-13)
    assert weighted_l2_norm(f, pairing) ** 2 == pytest.approx(want, rel=1e-13)


def test_weighted_norm_rejects_a_field_on_another_grid(unit_atom):
    """A pairing built on one grid never reads a field on another, whose
    hat moments belong to other integers and hat ends."""
    grid = Grid(16.0, 256)
    pairing = hat_pairing(grid, weight_profile(unit_atom).nk_squared)
    assert weighted_l2_norm(random_field(grid, rng.generator(0)), pairing) > 0
    for other in (Grid(16.0, 512), Grid(8.0, 256)):
        with pytest.raises(ValueError, match="another grid"):
            weighted_l2_norm(random_field(other, rng.generator(0)), pairing)


# --- serialization ---

def test_profile_csv(tmp_path, unit_atom):
    p = weight_profile(unit_atom)
    path = tmp_path / "profile.csv"
    save_profile_csv(p, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "k,nk_squared"
    ks, vals = zip(*(ln.split(",") for ln in lines[1:]))
    # the profile's own rows; N_k^2 past them follows the edge rule
    assert [int(k) for k in ks] == list(range(p.k_start, p.k_end + 1))
    assert float(vals[-int(ks[0])]) == 5.0  # row for k = 0
    assert float(vals[0]) == float(vals[-1]) == 4.0
