"""Conserved quantities and localization diagnostics.

Mass is the squared L^2 norm.  The energy of the flow with a gridded
potential V is

    E[psi] = 1/2 int |psi_x|^2 dx + 1/2 int |psi|^4 V dx ,

with the kinetic part evaluated spectrally.  For an atomic measure the
quartic interaction is the exact sum over atoms sum_j m_j |psi(y_j)|^4 with
trigonometric interpolation at the atom positions, which is what the
mollified integrals converge to as the width shrinks.  Only atoms in the
closed domain [-L, L] count, as in the mollified potential: the interpolant
is periodic, so an atom outside would read its periodic image's value.  A
run that records the sum at many states builds those atoms' interpolation
tables once (``domain_atoms``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bump import cutoff
from .field import (Grid, GriddedDensity, InterpolationPoints, WaveField,
                    evaluate_at, interpolation_points, l2_norm)
from .point_process import AtomicMeasure

__all__ = [
    "mass",
    "energy",
    "DomainAtoms",
    "domain_atoms",
    "quartic_measure_integral",
    "tail_norms",
]


def mass(f: WaveField) -> float:
    """Squared L^2 norm, conserved by the flow."""
    v = f.values
    return float(np.sum(v.real**2 + v.imag**2) * f.grid.dx)


def kinetic_energy(f: WaveField) -> float:
    """(1/2) int |psi_x|^2 dx, evaluated spectrally."""
    fhat = f.spectrum
    return float(0.5 * np.sum(f.grid.xi_squared
                              * (fhat.real**2 + fhat.imag**2))
                 * f.grid.dx / f.grid.n)


def energy(f: WaveField, potential: GriddedDensity) -> float:
    """Kinetic part plus (1/2) int |psi|^4 V against the gridded potential."""
    v = f.values
    dens2 = v.real**2 + v.imag**2
    quartic = 0.5 * float(np.sum(dens2 * dens2 * potential.values) * f.grid.dx)
    return kinetic_energy(f) + quartic


@dataclass(frozen=True, eq=False)
class DomainAtoms:
    """The masses of a measure's atoms in [-L, L] of a grid and their
    interpolation points on it."""

    masses: np.ndarray
    points: InterpolationPoints


def domain_atoms(grid: Grid, mu: AtomicMeasure) -> DomainAtoms:
    """The atoms of mu in the closed domain [-L, L], with their tables."""
    half_length = grid.half_length
    inside = (-half_length <= mu.positions) & (mu.positions <= half_length)
    return DomainAtoms(mu.masses[inside],
                       interpolation_points(grid, mu.positions[inside]))


def quartic_measure_integral(f: WaveField,
                             mu: AtomicMeasure | DomainAtoms) -> float:
    """int |f|^4 dmu as the exact sum over the atoms in [-L, L]; ``mu`` is
    the measure, or its ``domain_atoms`` on f's grid."""
    if isinstance(mu, AtomicMeasure):
        mu = domain_atoms(f.grid, mu)
    if not mu.masses.size:
        return 0.0
    vals = evaluate_at(f, mu.points)
    return float(np.dot(mu.masses, np.abs(vals) ** 4))


def tail_norms(grid: Grid, states, lam: float) -> np.ndarray:
    """L^2 norm of (1 - plateau at scale lam) * psi for each row psi of an
    (R, N) array of states on the grid.

    The mask vanishes for |x| <= 1/lam and equals 1 for |x| >= 2/lam, so the
    value measures mass that has escaped past radius 1/lam.
    """
    if not (0.0 < lam):
        raise ValueError("lam must be positive")
    mask = 1.0 - cutoff(grid.x, lam)
    return np.array([l2_norm(WaveField(grid, row * mask)) for row in states])
