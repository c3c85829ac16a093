import numpy as np
import pytest

from sprinkled_nls.diagnostics import (atomic_energy, energy, kinetic_energy,
                                       mass, quartic_measure_integral,
                                       tail_norms, tail_report)
from sprinkled_nls.field import (Grid, GriddedDensity, WaveField,
                                 free_propagator, gaussian_field)
from sprinkled_nls.mollify import truncated_potential
from sprinkled_nls.point_process import AtomicMeasure, sample_comb
from sprinkled_nls.solver import SolverParams, evolve_regularized

# frozen: int exp(-2x^2) = sqrt(pi/2), (1/2) int |d/dx exp(-x^2)|^2 = sqrt(pi/8)
GAUSS_MASS = 1.2533141373155003
GAUSS_KINETIC = 0.6266570686577501


def test_mass_and_kinetic_oracles(gauss):
    assert mass(gauss) == pytest.approx(GAUSS_MASS, rel=1e-14)
    assert kinetic_energy(gauss) == pytest.approx(GAUSS_KINETIC, rel=1e-13)


def test_energy_zero_potential_is_kinetic(gauss, fine_grid):
    pot = GriddedDensity(fine_grid, np.zeros(fine_grid.n))
    assert energy(gauss, pot) == kinetic_energy(gauss)


def test_energy_uniform_density(gauss, fine_grid):
    """V = 1 adds (1/2) int exp(-4x^2) = sqrt(pi)/4."""
    pot = GriddedDensity(fine_grid, np.ones(fine_grid.n))
    expect = kinetic_energy(gauss) + np.sqrt(np.pi) / 4.0
    assert energy(gauss, pot) == pytest.approx(expect, rel=1e-13)


def test_atomic_energy_unit_atom(gauss, unit_atom):
    # unit atom at the origin: kinetic + |f(0)|^4 / 2
    assert atomic_energy(gauss, unit_atom) == pytest.approx(
        GAUSS_KINETIC + 0.5, rel=1e-12)


def test_quartic_atom_sum(gauss):
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0, 0.3]),
                       np.array([2.0, 1.0]))
    expect = 2.0 + np.exp(-0.09) ** 4
    assert quartic_measure_integral(gauss, mu) == pytest.approx(expect,
                                                                rel=1e-12)


def test_quartic_nonnegative_and_vanishes_off_atoms(fine_grid):
    """Zero iff the field vanishes at every atom."""
    comb = sample_comb((-8.0, 8.0))
    wave = WaveField(fine_grid, np.sin(np.pi * fine_grid.x))
    assert quartic_measure_integral(wave, comb) < 1e-10
    shifted = WaveField(fine_grid, np.sin(np.pi * (fine_grid.x - 0.5)))
    assert quartic_measure_integral(shifted, comb) > 1.0


def test_energy_gap_shrinks_with_mollification_width(gauss, fine_grid):
    """energy(f, V_eps) converges to the atomic energy monotonically."""
    mu = AtomicMeasure((-8.0, 8.0), np.array([-2.3, 0.0, 1.7]),
                       np.array([1.0, 2.0, 1.0]))
    target = atomic_energy(gauss, mu)
    gaps = [abs(energy(gauss, truncated_potential(mu, fine_grid, eps,
                                                  "mollified_only")) - target)
            for eps in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01 * abs(target)


def test_tail_norms_initially_negligible():
    grid = Grid(32.0, 2048)
    tails = tail_norms([gaussian_field(grid)], 1.0 / 16.0)
    assert tails[0] < 1e-10


def test_tail_norms_validation():
    grid = Grid(32.0, 2048)
    with pytest.raises(ValueError):
        tail_norms([gaussian_field(grid)], 0.0)


def test_tail_norms_capture_dispersed_mass():
    grid = Grid(32.0, 2048)
    out = free_propagator(gaussian_field(grid), 4.0)
    lam = 0.5  # mask turns on beyond |x| = 2
    assert tail_norms([out], lam)[0] > 10.0 * tail_norms(
        [gaussian_field(grid)], lam)[0]


def test_tail_report_linear_growth_flag():
    grid = Grid(32.0, 2048)
    comb = sample_comb((-20.0, 20.0))
    traj = evolve_regularized(gaussian_field(grid), comb, 0.2,
                              SolverParams(dt=1e-3, t_final=0.5,
                                           record_every=100))
    rep = tail_report(traj, 0.5)
    assert rep["within_bound"]
    # mask opens at |x| = 2 where exp(-2x^2) ~ 3e-4
    assert rep["tails"][0] < 1e-3
    assert len(rep["tails"]) == len(traj.times)


def test_tail_report_weighted_column():
    """With a measure the weighted tails come along, dominating 2x plain."""
    grid = Grid(32.0, 2048)
    comb = sample_comb((-20.0, 20.0))
    traj = evolve_regularized(gaussian_field(grid), comb, 0.2,
                              SolverParams(dt=1e-2, t_final=0.1,
                                           record_every=5))
    rep = tail_report(traj, 0.5, mu=comb)
    assert "tails_weighted" in rep
    assert np.all(rep["tails_weighted"] >= 2.0 * rep["tails"] - 1e-12)
