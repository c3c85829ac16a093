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
FFT call along axis 1, written back into the stack so that stepping keeps one
(B, N) working array.  The free half step that ends one step and the one
that opens the next compose to one full free step exp(-i xi^2 dt) (the
splitting is first same as last), so the stack stays in Fourier space
between steps: one FFT and a half-step multiply before the first step, then
per step an IFFT, the kick, an FFT and the full free multiply.  That is two
transforms per step whatever B is, plus one per record: a record is the IFFT
of the spectrum times the half-step multiplier, written straight into its
row of the record array, so the state that steps on never depends on the
record schedule.  The finiteness check reads the spectrum after the kick,
which a non-finite value anywhere in its row makes non-finite.

The nonlinear phase is applied only on the support of V (gather,
multiply, scatter); off the support it is exp(0) = 1, so this is exact.
The phase product is computed as np.multiply(psi, phase, out=psi), psi
first: the complex product is not symmetric in its operands under FMA, and
the expression psi * phase lets numpy swap them once the phase temporary
reaches 256 KiB.  With the order fixed, every row of a stack equals the same
start run alone bit for bit.

Records land in one (B, R, N) array at ``SolverParams.record_steps``,
allocated before the first step and read-only after the last; it is all the
kernel returns.  ``evolve`` is the only code that builds a ``Trajectory``: it
takes record 0's diagnostics from the start itself, steps it, then runs the
diagnostics one record at a time on a short-lived ``WaveField`` of its row,
whose cached spectrum serves all of that record's spectral diagnostics; a
whole block at once would hold (R, N) temporaries per diagnostic, which
costs more memory than it saves time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .diagnostics import energy, mass, quartic_measure_integral
from .errors import (MAX_ENTRIES, MAX_STEPS, BlowUpError,
                     OracleInstabilityError, checked_size)
from .field import (Grid, GriddedDensity, WaveField, save_field_bin,
                    sobolev_norm, sup_norm)
from .measure import weight_profile, weighted_l2_norm
from .mollify import truncated_potential
from .payload import write_csv
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

DIAGNOSTIC_COLUMNS = ("t", "mass", "energy", "h1", "l2mu", "sup", "quartic")


@dataclass(frozen=True)
class SolverParams:
    """Time-stepping parameters; a run records at ``record_steps``, and
    record_quartic reaches ``evolve``'s diagnostics only."""

    dt: float
    t_final: float
    record_every: int = 10
    record_quartic: bool = True
    n_steps: int = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.1):
            raise ValueError("dt must lie in (0, 0.1]")
        if not self.dt <= self.t_final:
            raise ValueError("t_final must be at least dt")
        # a bounded step count also makes t_final finite
        object.__setattr__(self, "n_steps", checked_size(
            "step count t_final / dt", np.rint(self.t_final / self.dt),
            MAX_STEPS))
        if int(self.record_every) < 1:
            raise ValueError("record_every must be a positive integer")
        object.__setattr__(self, "record_every", int(self.record_every))

    @property
    def record_steps(self) -> np.ndarray:
        """Steps a run records: 0, every record_every steps, the last."""
        return np.append(np.arange(0, self.n_steps, self.record_every),
                         self.n_steps)


@dataclass
class Trajectory:
    """Recorded states and per-record diagnostics of one run: ``states`` is
    a read-only (R, N) array, one row per record, and ``diagnostics["t"]``
    holds the record times."""

    params: SolverParams
    grid: Grid
    states: np.ndarray
    diagnostics: dict[str, np.ndarray]


def _admitted_records(starts: Sequence[WaveField], potential: GriddedDensity,
                      params: SolverParams) -> int:
    """The record count R of a run, once its starts share the potential's
    grid and its (B, R, N) record array passes the size rule; O(1), so
    nothing is built for a run the rule refuses."""
    if not starts:
        raise ValueError("evolve_many needs at least one initial state")
    if any(psi0.grid != potential.grid for psi0 in starts):
        raise ValueError("potential and initial data must share a grid")
    n_records = len(range(0, params.n_steps, params.record_every)) + 1
    checked_size("record entries (starts x records x grid points)",
                 len(starts) * n_records * potential.grid.n, MAX_ENTRIES)
    return n_records


def evolve_many(starts: Sequence[WaveField], potential: GriddedDensity,
                params: SolverParams) -> np.ndarray:
    """Strang-split evolution of a stack of initial states: the read-only
    (B, R, N) array of each start's states at ``params.record_steps``.

    The record array passes the size rule before the first step.  A
    non-finite value in any row stops the whole stack.
    """
    n_records = _admitted_records(starts, potential, params)
    grid = potential.grid
    dt = params.dt
    half = np.exp(-0.5j * dt * grid.xi**2)
    full = np.exp(-1j * dt * grid.xi**2)
    support = np.flatnonzero(potential.values)
    kick = -2j * dt * potential.values[support]

    record_steps = params.record_steps
    records = np.empty((len(starts), n_records, grid.n), dtype=np.complex128)
    v = np.array([psi0.values for psi0 in starts])
    records[:, 0] = v
    np.fft.fft(v, axis=1, out=v)
    v *= half
    r = 1
    for step in range(1, params.n_steps + 1):
        np.fft.ifft(v, axis=1, out=v)
        w = v[:, support]
        np.multiply(w, np.exp(kick * (w.real**2 + w.imag**2)), out=w)
        v[:, support] = w
        np.fft.fft(v, axis=1, out=v)
        if not np.isfinite(v).all():
            raise BlowUpError(step, step * dt)
        if step == record_steps[r]:
            record = records[:, r]
            np.multiply(v, half, out=record)
            np.fft.ifft(record, axis=1, out=record)
            r += 1
        v *= full
    records.setflags(write=False)
    return records


def evolve(psi0: WaveField, potential: GriddedDensity, params: SolverParams,
           *, measure: AtomicMeasure) -> Trajectory:
    """One run with its per-record diagnostics.

    The weight profile of the measure passes the size rule before the first
    step.  The weighted norm (and, when record_quartic is on, the quartic
    measure integral) is recorded against the measure; an empty measure
    gives the baseline weight 4.  A non-finite diagnostic raises
    BlowUpError naming its column and its record's step; the quartic column
    is NaN by design when record_quartic is off and is not checked.  Record
    0 is psi0 itself, so a start of finite mass has its row taken and
    checked once the run is admitted and before the first step.
    """
    profile = weight_profile(measure)
    _admitted_records([psi0], potential, params)

    def row(s: WaveField) -> tuple:
        # a non-finite value is reported as BlowUpError, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            return (mass(s), energy(s, potential), sobolev_norm(s, 1.0),
                    weighted_l2_norm(s, profile), sup_norm(s),
                    quartic_measure_integral(s, measure)
                    if params.record_quartic else np.nan)

    def check(table: np.ndarray) -> None:
        checked = table if params.record_quartic else table[:, :-1]
        bad = np.argwhere(~np.isfinite(checked))
        if len(bad):
            r, c = bad[0]
            step = int(params.record_steps[r])
            raise BlowUpError(step, step * params.dt,
                              f"recorded {DIAGNOSTIC_COLUMNS[c + 1]}")

    start = row(WaveField(potential.grid, psi0.values))
    # the kick squares |psi| as the mass does: a start whose mass is not
    # finite steps first, so that the kernel names the step the kick fails
    if np.isfinite(start[0]):
        check(np.array([start]))
    states = evolve_many([psi0], potential, params)[0]
    table = np.array([start] + [row(WaveField(potential.grid, s))
                                for s in states[1:]])
    check(table)
    return Trajectory(params, potential.grid, states,
                      {"t": params.record_steps * params.dt,
                       **dict(zip(DIAGNOSTIC_COLUMNS[1:], table.T))})


def evolve_regularized(psi0: WaveField, mu: AtomicMeasure, eps: float,
                       params: SolverParams,
                       variant: str = "fully_truncated") -> Trajectory:
    """Evolution under the width-eps potential built from an atomic measure."""
    potential = truncated_potential(mu, psi0.grid, eps, variant)
    return evolve(psi0, potential, params, measure=mu)


def oracle_evolve(psi0: WaveField, potential: GriddedDensity, t_final: float,
                  dt: float) -> WaveField:
    """Independent reference: classical 4th-order fixed-step integration of
    the spectral method-of-lines system; returns the final state.

    The run aborts if the conserved norm drifts by more than 10%.
    """
    grid = psi0.grid
    if potential.grid != grid:
        raise ValueError("potential and initial data must share a grid")
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
    write_csv(path, traj.diagnostics)


def save_snapshots(traj: Trajectory, out_dir) -> list[str]:
    """Binary field snapshot per record; returns the written file names."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = []
    for i, row in enumerate(traj.states):
        name = f"state_{i:06d}.bin"
        save_field_bin(WaveField(traj.grid, row), out / name)
        names.append(name)
    return names
