import numpy as np
import pytest

from sprinkled_nls.bump import cutoff
from sprinkled_nls.errors import ResolutionError
from sprinkled_nls.field import Grid
from sprinkled_nls.mollify import (VARIANTS, check_resolution,
                                   mollified_density, truncated_potential)
from sprinkled_nls.point_process import AtomicMeasure, sample_poisson


def one_atom(y, mass=1.0, window=(-16.0, 16.0)):
    return AtomicMeasure(window, np.array([y]), np.array([mass]))


def test_check_resolution_boundary():
    g = Grid(16.0, 512)  # dx = 1/16
    check_resolution(g, 0.125)  # dx == eps/2 is allowed
    with pytest.raises(ResolutionError):
        check_resolution(g, 0.124)


def test_check_resolution_eps_range():
    g = Grid(16.0, 512)
    with pytest.raises(ValueError):
        check_resolution(g, 0.0)
    with pytest.raises(ValueError):
        check_resolution(g, 1.5)


@pytest.mark.parametrize("y", [0.0, 0.3137, -7.77])
@pytest.mark.parametrize("eps", [0.4, 0.1])
def test_mollified_atom_mass_exact(y, eps):
    """Deposition renormalizes the sampled kernel to the atom's exact mass."""
    g = Grid(16.0, 2048)
    d = mollified_density(one_atom(y, mass=1.75), g, eps)
    assert d.integral() == pytest.approx(1.75, rel=1e-13)


def test_mollified_atom_support():
    g = Grid(16.0, 2048)
    eps = 0.2
    d = mollified_density(one_atom(1.0), g, eps)
    outside = np.abs(g.x - 1.0) > eps + g.dx
    assert np.all(d.values[outside] == 0.0)
    assert d.values[np.argmin(np.abs(g.x - 1.0))] > 0.0


def test_edge_clipped_atom_keeps_mass():
    """An atom whose kernel sticks out of the grid still deposits its mass."""
    g = Grid(16.0, 2048)
    d = mollified_density(one_atom(-15.95, window=(-16.0, 16.0)), g, 0.2)
    assert d.integral() == pytest.approx(1.0, rel=1e-13)


def test_mollified_total_mass_poisson():
    g = Grid(32.0, 4096)
    mu = sample_poisson((-32.0, 32.0), 1.0, 7)
    d = mollified_density(mu, g, 0.2)
    assert d.integral() == pytest.approx(mu.total_mass(), rel=1e-12)


def test_resolution_guard_enforced():
    g = Grid(16.0, 256)  # dx = 0.125
    with pytest.raises(ResolutionError):
        mollified_density(one_atom(0.0), g, 0.2)


def test_truncation_variants():
    g = Grid(16.0, 2048)
    mu = one_atom(3.0)
    eps = 0.2
    dens = mollified_density(mu, g, eps)
    only = truncated_potential(mu, g, eps, "mollified_only")
    full = truncated_potential(mu, g, eps, "fully_truncated")
    np.testing.assert_array_equal(only.values, dens.values)
    np.testing.assert_allclose(full.values, dens.values * cutoff(g.x, eps),
                               rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        truncated_potential(mu, g, eps, "almost_truncated")
    assert set(VARIANTS) == {"mollified_only", "fully_truncated"}


def test_truncation_kills_far_atoms():
    """fully_truncated removes potential mass beyond 2/eps."""
    g = Grid(32.0, 4096)
    eps = 0.2
    mu = AtomicMeasure((-32.0, 32.0), np.array([0.0, 20.0]),
                       np.array([1.0, 1.0]))
    full = truncated_potential(mu, g, eps, "fully_truncated")
    near = np.abs(g.x) <= 1.0 / eps
    far = np.abs(g.x - 20.0) < 1.0
    assert full.values[far].max() == 0.0
    assert full.values[near].max() > 0.0
    # the surviving plateau keeps the near atom's full mass
    assert full.integral() == pytest.approx(1.0, rel=1e-12)


def test_potential_is_nonnegative():
    g = Grid(16.0, 2048)
    mu = sample_poisson((-14.0, 14.0), 1.0, 5)
    for variant in VARIANTS:
        v = truncated_potential(mu, g, 0.1, variant)
        assert np.all(v.values >= 0.0)
