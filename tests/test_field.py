import numpy as np
import pytest
from hypothesis import given, strategies as st

from sprinkled_nls import rng
from sprinkled_nls.field import (Grid, GriddedDensity, WaveField, evaluate_at,
                                 free_propagator, gaussian_field, hat_moments,
                                 interpolation_points, l2_norm, load_field_bin,
                                 load_field_csv, lp_project, random_field,
                                 save_field_bin, sobolev_norm, sup_norm)

# frozen: integral of exp(-2 x^2) is sqrt(pi/2)
GAUSS_MASS = 1.2533141373155003
# frozen: ||exp(-x^2)||_{H^1}^2 = sqrt(pi/2) + 2 * sqrt(pi/8) * 2
GAUSS_H1_SQ = 2.5066282746310005


def test_grid_geometry():
    g = Grid(16.0, 512)
    assert g.dx == pytest.approx(32.0 / 512, rel=1e-16)
    assert g.x[0] == -16.0
    assert g.x[-1] == pytest.approx(16.0 - g.dx, rel=1e-15)
    assert g.xi[0] == 0.0
    assert g.xi[1] == pytest.approx(np.pi / 16.0, rel=1e-15)


@pytest.mark.parametrize("n", [3, 6, 100, 0])
def test_grid_rejects_non_power_of_two(n):
    with pytest.raises(ValueError):
        Grid(16.0, n)


def test_grid_rejects_bad_length():
    # the last two leave pi (n/2) / L, or its square, past the largest double
    for half_length in (0.0, float("nan"), float("inf"), 1e-320, 1e-200):
        with pytest.raises(ValueError):
            Grid(half_length, 512)


def test_wavefield_shape_checked():
    g = Grid(16.0, 512)
    with pytest.raises(ValueError):
        WaveField(g, np.zeros(100))


def test_wavefield_values_are_readonly():
    g = Grid(16.0, 512)
    f = WaveField(g, np.zeros(512))
    with pytest.raises(ValueError):
        f.values[0] = 1.0


def test_spectrum_is_the_readonly_fft_of_the_values(grid):
    f = random_field(grid, rng.generator(3))
    np.testing.assert_array_equal(f.spectrum, np.fft.fft(f.values))
    assert f.spectrum is f.spectrum
    with pytest.raises(ValueError):
        f.spectrum[0] = 1.0


def test_density_rejects_negative_and_nonfinite():
    g = Grid(16.0, 512)
    with pytest.raises(ValueError):
        GriddedDensity(g, -np.ones(512))
    bad = np.ones(512)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GriddedDensity(g, bad)


def test_gaussian_norms(gauss):
    assert l2_norm(gauss) ** 2 == pytest.approx(GAUSS_MASS, rel=1e-14)
    assert sobolev_norm(gauss, 1.0) ** 2 == pytest.approx(GAUSS_H1_SQ, rel=1e-13)
    assert sobolev_norm(gauss, 0.0) == pytest.approx(l2_norm(gauss), rel=1e-14)
    assert sup_norm(gauss) == pytest.approx(1.0, rel=1e-15)


def test_sobolev_rejects_out_of_range(gauss):
    with pytest.raises(ValueError):
        sobolev_norm(gauss, 2.5)


def test_evaluate_at_gaussian(gauss):
    val = evaluate_at(gauss, interpolation_points(gauss.grid, [0.3]))[0]
    assert val.real == pytest.approx(0.91393118527122819, rel=1e-12)
    assert abs(val.imag) < 1e-13


def test_evaluate_at_reproduces_grid_nodes(gauss):
    idx = [0, 17, 2048, 4095]
    vals = evaluate_at(gauss, interpolation_points(gauss.grid,
                                                   gauss.grid.x[idx]))
    np.testing.assert_allclose(vals, gauss.values[idx], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [4, 8, 512, 4096])
def test_evaluate_at_matches_direct_sum(n):
    """The factorized phases agree with the direct exp(i xi (x + L)) sum;
    8 and 512 are odd powers of two, so the blocks are not square."""
    grid = Grid(32.0, n)
    f = random_field(grid, rng.generator(n))
    pts = np.random.default_rng(n).uniform(-grid.half_length, grid.half_length, 71)
    direct = np.exp(1j * np.outer(pts + grid.half_length, grid.xi)) @ (
        np.fft.fft(f.values) / n)
    np.testing.assert_allclose(evaluate_at(f, interpolation_points(grid, pts)),
                               direct, rtol=0,
                               atol=1e-13 * np.max(np.abs(direct)))


def test_evaluate_at_rejects_a_field_on_another_grid():
    """Tables built for one grid's frequencies never read a field on
    another, even one with as many points."""
    points = interpolation_points(Grid(8.0, 512), [0.0, 0.3])
    for other in (Grid(8.0, 1024), Grid(16.0, 512)):
        with pytest.raises(ValueError, match="another grid"):
            evaluate_at(gaussian_field(other), points)


@pytest.mark.parametrize("half_length", [7.0, 7.6])
def test_hat_moments_partition_of_unity(half_length):
    """The hats sum to one on [-L, L), so the moments add up to the mass;
    every k whose hat meets the domain is listed."""
    f = random_field(Grid(half_length, 256), rng.generator(4))
    ks, h = hat_moments(f)
    assert ks[0] == np.floor(-half_length) and ks[-1] == np.ceil(half_length)
    assert np.sum(h) == pytest.approx(l2_norm(f) ** 2, rel=1e-13)
    assert np.all(h > -1e-15)


def test_free_propagator_gaussian_closed_form(fine_grid):
    """exp(-x^2) evolves to (1+4it)^(-1/2) exp(-x^2 / (1+4it))."""
    f = gaussian_field(fine_grid)
    t = 0.1
    out = free_propagator(f, t)
    z = 1.0 + 4.0j * t
    exact = np.exp(-fine_grid.x**2 / z) / np.sqrt(z)
    err = l2_norm(WaveField(fine_grid, out.values - exact))
    assert err < 1e-12
    assert l2_norm(out) == pytest.approx(l2_norm(f), rel=1e-14)


def test_free_propagator_composes(fine_grid):
    f = random_field(fine_grid, rng.generator(3))
    one = free_propagator(free_propagator(f, 0.3), 0.2)
    oneshot = free_propagator(f, 0.5)
    np.testing.assert_allclose(one.values, oneshot.values, rtol=0, atol=1e-13)


def test_lp_project_passband(fine_grid):
    # a single mode well inside the pass band survives unchanged
    k = 16
    mode = np.exp(1j * fine_grid.xi[k] * (fine_grid.x + fine_grid.half_length))
    f = WaveField(fine_grid, mode)
    assert fine_grid.xi[k] <= 4.0
    np.testing.assert_allclose(lp_project(f, 4.0).values, f.values,
                               rtol=0, atol=1e-12)


def test_lp_project_rejects_small_cut(fine_grid):
    f = gaussian_field(fine_grid)
    with pytest.raises(ValueError):
        lp_project(f, 0.5)


def test_random_field_normalization(grid):
    f = random_field(grid, rng.generator(5))
    assert sobolev_norm(f, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_random_field_seeded(grid):
    a = random_field(grid, rng.generator(123))
    b = random_field(grid, rng.generator(123))
    np.testing.assert_array_equal(a.values, b.values)


def test_field_csv_round_trip(tmp_path, grid):
    f = random_field(grid, rng.generator(8))
    path = tmp_path / "field.csv"
    path.write_text("x,re,im\n" + "".join(
        f"{x:.17g},{v.real:.17g},{v.imag:.17g}\n"
        for x, v in zip(f.grid.x, f.values)))
    g = load_field_csv(path)
    assert g.grid == f.grid
    np.testing.assert_array_equal(g.values, f.values)


def test_field_bin_round_trip(tmp_path, grid):
    f = random_field(grid, rng.generator(9))
    path = tmp_path / "field.bin"
    save_field_bin(f, path)
    g = load_field_bin(path)
    assert g.grid == f.grid
    np.testing.assert_array_equal(g.values, f.values)


def test_load_field_bin_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAFLD0" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_field_bin(path)


@given(seed=st.integers(0, 2**32 - 1),
       s=st.floats(-2.0, 2.0), t=st.floats(-2.0, 2.0))
def test_sobolev_monotone_in_order(seed, s, t):
    """H^s norms increase with s for any fixed field."""
    grid = Grid(8.0, 64)
    f = random_field(grid, rng.generator(seed))
    lo, hi = min(s, t), max(s, t)
    assert sobolev_norm(f, lo) <= sobolev_norm(f, hi) * (1.0 + 1e-12)


@given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.01, 5.0))
def test_free_propagator_isometry(seed, t):
    """Free evolution preserves every H^s norm."""
    grid = Grid(8.0, 64)
    f = random_field(grid, rng.generator(seed))
    out = free_propagator(f, t)
    for s in (-1.0, 0.0, 1.0):
        assert sobolev_norm(out, s) == pytest.approx(sobolev_norm(f, s),
                                                     rel=1e-10)
