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
    "tail_norm",
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


def quartic_measure_integral(f: WaveField, atoms: DomainAtoms) -> float:
    """int |f|^4 dmu as the exact sum over the atoms of mu in [-L, L];
    ``atoms`` is the measure's ``domain_atoms`` on f's grid, and a field on
    another grid is a ValueError, also when no atom is in the domain."""
    vals = evaluate_at(f, atoms.points)
    return float(np.dot(atoms.masses, np.abs(vals) ** 4))


def tail_norm(f: WaveField, lam: float) -> float:
    """L^2 norm of (1 - plateau at scale lam) * f.

    The mask vanishes for |x| <= 1/lam and equals 1 for |x| >= 2/lam, so the
    value measures mass that has escaped past radius 1/lam.
    """
    if not (0.0 < lam):
        raise ValueError("lam must be positive")
    return l2_norm(WaveField(f.grid, f.values * (1.0 - cutoff(f.grid.x, lam))))
