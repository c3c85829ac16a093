"""Conserved quantities and localization diagnostics.

Mass is the squared L^2 norm.  The energy of the flow with a gridded
potential V is

    E[psi] = 1/2 int |psi_x|^2 dx + 1/2 int |psi|^4 V dx ,

with the kinetic part evaluated spectrally.  For an atomic measure the
quartic interaction is the exact sum over atoms sum_j m_j |psi(y_j)|^4 with
trigonometric interpolation at the atom positions, which is what the
mollified integrals converge to as the width shrinks.  Only atoms in the
closed domain [-L, L] count, as in the mollified potential: the interpolant
is periodic, so an atom outside would read its periodic image's value.
"""
from __future__ import annotations

import numpy as np

from .bump import cutoff
from .field import Grid, GriddedDensity, WaveField, evaluate_at, l2_norm
from .point_process import AtomicMeasure

__all__ = [
    "mass",
    "energy",
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
    return float(0.5 * np.sum(f.grid.xi**2 * (fhat.real**2 + fhat.imag**2))
                 * f.grid.dx / f.grid.n)


def energy(f: WaveField, potential: GriddedDensity) -> float:
    """Kinetic part plus (1/2) int |psi|^4 V against the gridded potential."""
    v = f.values
    dens2 = v.real**2 + v.imag**2
    quartic = 0.5 * float(np.sum(dens2 * dens2 * potential.values) * f.grid.dx)
    return kinetic_energy(f) + quartic


def quartic_measure_integral(f: WaveField, mu: AtomicMeasure) -> float:
    """int |f|^4 dmu as the exact sum over the atoms in [-L, L]."""
    half_length = f.grid.half_length
    inside = (-half_length <= mu.positions) & (mu.positions <= half_length)
    if not inside.any():
        return 0.0
    vals = evaluate_at(f, mu.positions[inside])
    return float(np.dot(mu.masses[inside], np.abs(vals) ** 4))


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
