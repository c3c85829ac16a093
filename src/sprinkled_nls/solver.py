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

One kernel, ``evolve_many``, advances a stack of initial states that share a
grid, a potential and a step as one (B, N) array: each transform is a single
FFT call along axis 1, four per step whatever B is, written back into the
stack so that stepping keeps one (B, N) working array.  ``evolve`` is the
B = 1 case.  The nonlinear phase is applied only on the support of V (gather,
multiply, scatter); off the support it is exp(0) = 1, so this is exact.
The phase product is computed as np.multiply(psi, phase, out=psi), psi
first: the complex product is not symmetric in its operands under FMA, and
the expression psi * phase lets numpy swap them once the phase temporary
reaches 256 KiB.  With the order fixed, every row of a stack equals the same
start run alone bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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
    "evolve_many",
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
    traj_diag["l2mu"].append(weighted_l2_norm(state, profile))
    traj_diag["sup"].append(sup_norm(state))
    traj_diag["quartic"].append(quartic_measure_integral(state, mu)
                                if record_quartic else np.nan)
    return state


def evolve_many(starts: Sequence[WaveField], potential: GriddedDensity,
                params: SolverParams, *,
                measure: AtomicMeasure) -> list[Trajectory]:
    """Strang-split evolution of a stack of initial states, one trajectory
    per start, with per-record diagnostics.

    Records land at step 0, every record_every steps, and the final step.
    The weighted norm (and, when record_quartic is on, the quartic measure
    integral) is recorded against the measure; an empty measure gives the
    baseline weight 4.  A non-finite value in any row stops the whole stack.
    """
    if not starts:
        raise ValueError("evolve_many needs at least one initial state")
    grid = potential.grid
    if any(psi0.grid != grid for psi0 in starts):
        raise ValueError("potential and initial data must share a grid")
    dt = params.dt
    half = np.exp(-0.5j * dt * grid.xi**2)
    support = np.flatnonzero(potential.values)
    kick = -2j * dt * potential.values[support]
    profile = weight_profile(measure)

    diags = [{k: [] for k in (*DIAGNOSTIC_COLUMNS, "quartic")} for _ in starts]
    states: list[list[WaveField]] = [[] for _ in starts]

    def record(v: np.ndarray, t: float) -> None:
        for diag, row_states, row in zip(diags, states, v):
            row_states.append(_record(diag, grid, row, t, potential, measure,
                                      profile, params.record_quartic))

    v = np.array([psi0.values for psi0 in starts])
    record(v, 0.0)
    n_steps = params.n_steps
    for step in range(1, n_steps + 1):
        np.fft.fft(v, axis=1, out=v)
        v *= half
        np.fft.ifft(v, axis=1, out=v)
        w = v[:, support]
        np.multiply(w, np.exp(kick * (w.real**2 + w.imag**2)), out=w)
        v[:, support] = w
        np.fft.fft(v, axis=1, out=v)
        v *= half
        np.fft.ifft(v, axis=1, out=v)
        if not np.isfinite(v).all():
            raise BlowUpError(step, step * dt)
        if step % params.record_every == 0 or step == n_steps:
            record(v, step * dt)
    return [Trajectory(grid, params, np.asarray(diag["t"]), row_states,
                       {k: np.asarray(vs) for k, vs in diag.items()})
            for diag, row_states in zip(diags, states)]


def evolve(psi0: WaveField, potential: GriddedDensity, params: SolverParams,
           *, measure: AtomicMeasure) -> Trajectory:
    """Single-start evolution: the B = 1 case of ``evolve_many``."""
    return evolve_many([psi0], potential, params, measure=measure)[0]


def evolve_regularized(psi0: WaveField, mu: AtomicMeasure, eps: float,
                       params: SolverParams,
                       variant: str = "fully_truncated") -> Trajectory:
    """Evolution under the width-eps potential built from an atomic measure."""
    potential = truncated_potential(mu, psi0.grid, eps, variant)
    return evolve(psi0, potential, params, measure=mu)


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
