import numpy as np
import pytest

from sprinkled_nls.diagnostics import (domain_atoms, energy, kinetic_energy,
                                       mass, quartic_measure_integral,
                                       tail_norm)
from sprinkled_nls.field import (Grid, GriddedDensity, WaveField,
                                 evaluate_at, free_propagator, gaussian_field,
                                 interpolation_points)
from sprinkled_nls.mollify import mollified_density, truncated_potential
from sprinkled_nls.point_process import AtomicMeasure, sample_comb

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
    """The energy with the interaction taken against the measure itself; a
    unit atom at the origin gives kinetic + |f(0)|^4 / 2."""
    got = (kinetic_energy(gauss) + 0.5 * quartic_measure_integral(
        gauss, domain_atoms(gauss.grid, unit_atom)))
    assert got == pytest.approx(GAUSS_KINETIC + 0.5, rel=1e-12)


def test_quartic_atom_sum(gauss):
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0, 0.3]),
                       np.array([2.0, 1.0]))
    expect = 2.0 + np.exp(-0.09) ** 4
    got = quartic_measure_integral(gauss, domain_atoms(gauss.grid, mu))
    assert got == pytest.approx(expect, rel=1e-12)


def test_quartic_nonnegative_and_vanishes_off_atoms(fine_grid):
    """Zero iff the field vanishes at every atom."""
    comb = domain_atoms(fine_grid, sample_comb((-8.0, 8.0)))
    wave = WaveField(fine_grid, np.sin(np.pi * fine_grid.x))
    assert quartic_measure_integral(wave, comb) < 1e-10
    shifted = WaveField(fine_grid, np.sin(np.pi * (fine_grid.x - 0.5)))
    assert quartic_measure_integral(shifted, comb) > 1.0


def test_quartic_counts_only_atoms_in_the_domain():
    """The interpolant is periodic, so an atom past the domain would read the
    value at its periodic image (-8.7 reads 7.3 on [-8, 8)); like the
    mollified density, the atom sum gives such an atom nothing.  Atoms on
    either closed end, -L and L, still count."""
    grid = Grid(8.0, 1024)
    f = gaussian_field(grid, center=7.0)

    def quartic(*positions, masses=None):
        mu = AtomicMeasure((-9.0, 9.0), np.array(positions),
                           np.ones(len(positions)) if masses is None
                           else np.array(masses))
        return quartic_measure_integral(f, domain_atoms(grid, mu))

    assert quartic(7.3) > 0.5
    outside = AtomicMeasure((-9.0, 9.0), np.array([-8.7]), np.array([1.0]))
    assert np.sum(mollified_density(outside, grid, 0.05).values) == 0.0
    assert quartic(-8.7) == 0.0
    assert quartic(-8.7, 7.3) == quartic(7.3)
    end = evaluate_at(f, interpolation_points(grid, [8.0]))[0]
    expect = 3.0 * abs(end) ** 4
    assert quartic(-8.0, 8.0, masses=[1.0, 2.0]) == pytest.approx(expect,
                                                                  rel=1e-12)


@pytest.mark.parametrize("positions", [[0.5, 3.0], []],
                         ids=["atoms", "no_atom_in_the_domain"])
def test_quartic_rejects_a_field_on_another_grid(positions):
    """Atom tables built on one grid never read a field on another, even
    when no atom lies in the domain and the sum would be 0."""
    mu = AtomicMeasure((-8.0, 8.0), np.array(positions),
                       np.ones(len(positions)))
    atoms = domain_atoms(Grid(8.0, 256), mu)
    for other in (Grid(8.0, 512), Grid(4.0, 256)):
        with pytest.raises(ValueError, match="another grid"):
            quartic_measure_integral(gaussian_field(other), atoms)


def test_energy_gap_shrinks_with_mollification_width(gauss, fine_grid):
    """energy(f, V_eps) converges monotonically to the atomic energy, whose
    interaction is taken against the measure itself."""
    mu = AtomicMeasure((-8.0, 8.0), np.array([-2.3, 0.0, 1.7]),
                       np.array([1.0, 2.0, 1.0]))
    target = kinetic_energy(gauss) + 0.5 * quartic_measure_integral(
        gauss, domain_atoms(fine_grid, mu))
    gaps = [abs(energy(gauss, truncated_potential(mu, fine_grid, eps,
                                                  "mollified_only")) - target)
            for eps in (0.4, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01 * abs(target)


def test_tail_norms_initially_negligible():
    grid = Grid(32.0, 2048)
    assert tail_norm(gaussian_field(grid), 1.0 / 16.0) < 1e-10


def test_tail_norms_validation():
    grid = Grid(32.0, 2048)
    with pytest.raises(ValueError):
        tail_norm(gaussian_field(grid), 0.0)


def test_tail_norms_capture_dispersed_mass():
    grid = Grid(32.0, 2048)
    out = free_propagator(gaussian_field(grid), 4.0)
    lam = 0.5  # mask turns on beyond |x| = 2
    assert tail_norm(out, lam) > 10.0 * tail_norm(gaussian_field(grid), lam)
