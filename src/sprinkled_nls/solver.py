"""Split-step time integration of the cubic flow with a gridded potential.

The equation i psi_t = -psi_xx + 2 V |psi|^2 psi is advanced by Strang
splitting: a half step of exact free evolution (spectral multiplier
exp(-i xi^2 dt/2)), one full step of the nonlinear flow, which is an exact
pointwise phase rotation because |psi| is frozen along it,

    psi <- psi * exp(-2i V |psi|^2 dt),

then another free half step.  Both substeps preserve the discrete mass
exactly, the composition is time-reversible, and the scheme is second order
in dt.  A classical fixed-step 4th-order integrator of the same spectral
method-of-lines system serves as an independent reference.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import energy, mass, quartic_measure_integral
from .errors import BlowUpError, OracleInstabilityError
from .field import Grid, GriddedDensity, WaveField, save_field_bin, sobolev_norm, sup_norm
from .measure import WeightProfile, weight_profile, weighted_l2_norm
from .mollify import truncated_potential
from .point_process import AtomicMeasure

__all__ = [
    "SolverParams",
    "Trajectory",
    "evolve",
    "evolve_regularized",
    "oracle_evolve",
    "save_trajectory_csv",
    "save_snapshots",
]

DIAGNOSTIC_COLUMNS = ("t", "mass", "energy", "h1", "l2mu", "sup")


@dataclass(frozen=True)
class SolverParams:
    """Time-stepping parameters; records happen every record_every steps."""

    dt: float
    t_final: float
    record_every: int = 10
    record_quartic: bool = True

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.1):
            raise ValueError("dt must lie in (0, 0.1]")
        if self.t_final < self.dt:
            raise ValueError("t_final must be at least dt")
        if int(self.record_every) < 1:
            raise ValueError("record_every must be a positive integer")
        object.__setattr__(self, "record_every", int(self.record_every))

    @property
    def n_steps(self) -> int:
        return max(1, int(round(self.t_final / self.dt)))


@dataclass
class Trajectory:
    """Recorded states and per-record diagnostics of one run."""

    grid: Grid
    params: SolverParams
    times: np.ndarray
    states: list[WaveField]
    diagnostics: dict[str, np.ndarray]


def _record(traj_diag, grid: Grid, v: np.ndarray, t: float,
            potential: GriddedDensity, mu: AtomicMeasure,
            profile: WeightProfile, record_quartic: bool) -> WaveField:
    state = WaveField(grid, v)
    traj_diag["t"].append(t)
    traj_diag["mass"].append(mass(state))
    traj_diag["energy"].append(energy(state, potential))
    traj_diag["h1"].append(sobolev_norm(state, 1.0))
    traj_diag["l2mu"].append(weighted_l2_norm(state, mu, profile=profile))
    traj_diag["sup"].append(sup_norm(state))
    traj_diag["quartic"].append(quartic_measure_integral(state, mu)
                                if record_quartic else np.nan)
    return state


def evolve(psi0: WaveField, potential: GriddedDensity, params: SolverParams,
           *, measure: AtomicMeasure,
           profile: WeightProfile | None = None) -> Trajectory:
    """Strang-split evolution with per-record diagnostics.

    Records land at step 0, every record_every steps, and the final step.
    The weighted norm (and, when record_quartic is on, the quartic measure
    integral) is recorded against the measure; an empty measure gives the
    baseline weight 4.
    """
    if potential.grid != psi0.grid:
        raise ValueError("potential and initial data must share a grid")
    grid = psi0.grid
    dt = params.dt
    half = np.exp(-0.5j * dt * grid.xi**2)
    vpot = potential.values
    if profile is None:
        profile = weight_profile(measure)

    diag = {k: [] for k in (*DIAGNOSTIC_COLUMNS, "quartic")}
    states: list[WaveField] = []
    v = psi0.values.copy()
    states.append(_record(diag, grid, v, 0.0, potential, measure, profile,
                          params.record_quartic))
    n_steps = params.n_steps
    for step in range(1, n_steps + 1):
        v = np.fft.ifft(np.fft.fft(v) * half)
        v = v * np.exp(-2j * dt * vpot * (v.real**2 + v.imag**2))
        v = np.fft.ifft(np.fft.fft(v) * half)
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise BlowUpError(step, step * dt)
        if step % params.record_every == 0 or step == n_steps:
            states.append(_record(diag, grid, v, step * dt, potential, measure,
                                  profile, params.record_quartic))
    times = np.asarray(diag["t"])
    diagnostics = {k: np.asarray(vs) for k, vs in diag.items()}
    return Trajectory(grid, params, times, states, diagnostics)


def evolve_regularized(psi0: WaveField, mu: AtomicMeasure, eps: float,
                       params: SolverParams, variant: str = "fully_truncated",
                       profile: WeightProfile | None = None) -> Trajectory:
    """Evolution under the width-eps potential built from an atomic measure."""
    potential = truncated_potential(mu, psi0.grid, eps, variant)
    return evolve(psi0, potential, params, measure=mu, profile=profile)


def oracle_evolve(psi0: WaveField, potential: GriddedDensity, t_final: float,
                  dt: float | None = None) -> WaveField:
    """Independent reference: classical 4th-order fixed-step integration of
    the spectral method-of-lines system; returns the final state.

    The default step sits inside the imaginary-axis stability interval of the
    scheme for the grid's largest frequency.  The run aborts if the conserved
    norm drifts by more than 10%.
    """
    grid = psi0.grid
    if potential.grid != grid:
        raise ValueError("potential and initial data must share a grid")
    if dt is None:
        dt = grid.dx**2 / 4.0
    n = max(1, int(np.ceil(t_final / dt)))
    h = t_final / n
    xi2 = grid.xi**2
    vpot = potential.values

    def rhs(v):
        lap = np.fft.ifft(xi2 * np.fft.fft(v))
        return -1j * (lap + 2.0 * vpot * (v.real**2 + v.imag**2) * v)

    v = psi0.values.copy()
    norm0 = np.sqrt(np.sum(v.real**2 + v.imag**2))
    check_every = max(1, n // 64)
    for step in range(n):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % check_every == 0 or step == n - 1:
            norm = np.sqrt(np.sum(v.real**2 + v.imag**2))
            if not np.isfinite(norm) or norm > 1.1 * norm0:
                raise OracleInstabilityError(
                    f"reference norm grew to {norm / norm0:.3f}x at step {step + 1}; "
                    "reduce dt")
    return WaveField(grid, v)


# --- serialization ---

def save_trajectory_csv(traj: Trajectory, path) -> None:
    d = traj.diagnostics
    cols = (*DIAGNOSTIC_COLUMNS, "quartic")
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(len(traj.times)):
            fh.write(",".join(f"{d[c][i]:.17g}" for c in cols) + "\n")


def save_snapshots(traj: Trajectory, out_dir) -> list[str]:
    """Binary field snapshot per record; returns the written file names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for i, state in enumerate(traj.states):
        name = f"state_{i:06d}.bin"
        save_field_bin(state, out / name)
        names.append(name)
    return names
