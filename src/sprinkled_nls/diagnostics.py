"""Conserved quantities and localization diagnostics.

Mass is the squared L^2 norm.  The energy of the flow with a gridded
potential V is

    E[psi] = 1/2 int |psi_x|^2 dx + 1/2 int |psi|^4 V dx ,

with the kinetic part evaluated spectrally.  For an atomic measure the
quartic interaction is the exact sum over atoms sum_j m_j |psi(y_j)|^4 with
trigonometric interpolation at the atom positions, which is what the
mollified integrals converge to as the width shrinks.
"""
from __future__ import annotations

import numpy as np

from .bump import cutoff
from .constants import CALIBRATION
from .field import GriddedDensity, WaveField, evaluate_at, l2_norm
from .measure import weight_profile, weighted_l2_norm
from .point_process import AtomicMeasure

__all__ = [
    "mass",
    "kinetic_energy",
    "energy",
    "atomic_energy",
    "quartic_measure_integral",
    "tail_norms",
    "tail_report",
]


def mass(f: WaveField) -> float:
    """Squared L^2 norm, conserved by the flow."""
    v = f.values
    return float(np.sum(v.real**2 + v.imag**2) * f.grid.dx)


def kinetic_energy(f: WaveField) -> float:
    """(1/2) int |psi_x|^2 dx, evaluated spectrally."""
    fhat = np.fft.fft(f.values)
    return float(0.5 * np.sum(f.grid.xi**2 * (fhat.real**2 + fhat.imag**2))
                 * f.grid.dx / f.grid.n)


def energy(f: WaveField, potential: GriddedDensity) -> float:
    """Kinetic part plus (1/2) int |psi|^4 V against the gridded potential."""
    v = f.values
    dens2 = v.real**2 + v.imag**2
    quartic = 0.5 * float(np.sum(dens2 * dens2 * potential.values) * f.grid.dx)
    return kinetic_energy(f) + quartic


def quartic_measure_integral(f: WaveField, mu: AtomicMeasure) -> float:
    """int |f|^4 dmu as the exact atom sum."""
    if not mu.count:
        return 0.0
    vals = evaluate_at(f, mu.positions)
    return float(np.dot(mu.masses, np.abs(vals) ** 4))


def atomic_energy(f: WaveField, mu: AtomicMeasure) -> float:
    """Energy with the interaction taken against the measure itself."""
    return kinetic_energy(f) + 0.5 * quartic_measure_integral(f, mu)


def _tail_parts(states, lam: float) -> list[WaveField]:
    """(1 - plateau at scale lam) * psi for each state."""
    if not (0.0 < lam):
        raise ValueError("lam must be positive")
    return [WaveField(s.grid, s.values * (1.0 - cutoff(s.grid.x, lam)))
            for s in states]


def tail_norms(states, lam: float) -> np.ndarray:
    """L^2 norm of (1 - plateau at scale lam) * psi for each state.

    The mask vanishes for |x| <= 1/lam and equals 1 for |x| >= 2/lam, so the
    value measures mass that has escaped past radius 1/lam.
    """
    return np.array([l2_norm(f) for f in _tail_parts(states, lam)])


def tail_report(traj, lam: float, mu=None) -> dict:
    """Tail norms along a trajectory plus a linear-growth verification flag.

    The flag checks max_t tail(t)^2 <= tail(0)^2 + c * lam * T * max_t h1(t)^2
    with the frozen calibration constant c.  When a measure is passed the
    weighted tail norms are reported alongside the plain ones.
    """
    c = CALIBRATION["tail_growth_constant"]
    parts = _tail_parts(traj.states, lam)
    tails = np.array([l2_norm(f) for f in parts])
    t_final = float(traj.times[-1])
    h1_max = float(np.max(traj.diagnostics["h1"]))
    bound = tails[0] ** 2 + c * lam * t_final * h1_max**2
    report = {
        "lam": lam,
        "times": traj.times.copy(),
        "tails": tails,
        "bound": bound,
        "within_bound": bool(np.max(tails**2) <= bound * (1.0 + 1e-9) + 1e-300),
    }
    if mu is not None:
        profile = weight_profile(mu)
        report["tails_weighted"] = np.array(
            [weighted_l2_norm(f, mu, profile=profile) for f in parts])
    return report
