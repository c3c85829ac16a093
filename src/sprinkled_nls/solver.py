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
of the spectrum times the half-step multiplier, a new array, so the state
that steps on never depends on the record schedule.  The finiteness check
reads the spectrum after the kick, which a non-finite value anywhere in its
row makes non-finite.

The nonlinear phase is applied only on the support of V (gather,
multiply, scatter); off the support it is exp(0) = 1, so this is exact.
The phase product is computed as np.multiply(psi, phase, out=psi), psi
first: the complex product is not symmetric in its operands under FMA, and
the expression psi * phase lets numpy swap them once the phase temporary
reaches 256 KiB.  With the order fixed, every row of a stack equals the same
start run alone bit for bit.

The kernel yields each record as it reaches it, record 0 (a copy of the
starts) before the first step, and keeps none; each caller checks
(``check_record``) its numbers from a record as it arrives.  ``evolve``, the
one builder of a ``Trajectory``, holds no state array either: it takes each
record's diagnostics as it arrives, on a short-lived ``WaveField`` whose
cached spectrum serves them all, writes the record's snapshot file once
they pass, when asked to, and drops it before asking for the next, keeping
only the last.  So a non-finite diagnostic stops the kernel at that record's
step, with the files of the records before it on disk.  Everything those
diagnostics read that does not depend on the state (the weighted norm's
linear functional, the atoms' interpolation tables, the grid's xi^2 and
Sobolev weights) is built once per run, not once per record.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .diagnostics import domain_atoms, energy, mass, quartic_measure_integral
from .errors import (MAX_ENTRIES, MAX_STEPS, BlowUpError, ConfigError,
                     OracleInstabilityError, checked_size)
from .field import (GriddedDensity, WaveField, hat_pairing, save_field_bin,
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
    "snapshot_name",
]

DIAGNOSTIC_COLUMNS = ("t", "mass", "energy", "h1", "l2mu", "sup", "quartic")


@dataclass(frozen=True)
class SolverParams:
    """Time-stepping parameters; a run records at step 0, every
    record_every steps and the last, and record_quartic reaches
    ``evolve``'s diagnostics only."""

    dt: float
    t_final: float
    record_every: int = 10
    record_quartic: bool = True
    n_steps: int = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.dt <= 0.1):
            raise ConfigError("dt must lie in (0, 0.1]")
        if not self.dt <= self.t_final:
            raise ConfigError("t_final must be at least dt")
        # a bounded step count also makes t_final finite
        object.__setattr__(self, "n_steps", checked_size(
            "step count t_final / dt", np.rint(self.t_final / self.dt),
            MAX_STEPS))
        if int(self.record_every) < 1:
            raise ConfigError("record_every must be a positive integer")
        object.__setattr__(self, "record_every", int(self.record_every))


@dataclass
class Trajectory:
    """Per-record diagnostics of one run and its last record: ``final`` is
    the state at the last step, and ``diagnostics["t"]`` holds the record
    times."""

    params: SolverParams
    diagnostics: dict[str, np.ndarray]
    final: WaveField


def snapshot_name(i: int) -> str:
    """The file name of record i's snapshot."""
    return f"state_{i:06d}.bin"


def check_record(step: int, dt: float, names: Sequence[str], values) -> None:
    """The one per-record rule: BlowUpError at the first non-finite value."""
    for name, value in zip(names, values):
        if not np.isfinite(value).all():
            raise BlowUpError(step, step * dt, f"recorded {name}")


def evolve_many(starts: Sequence[WaveField], potential: GriddedDensity,
                params: SolverParams) -> Iterator[tuple[int, np.ndarray]]:
    """Strang-split evolution of a stack of initial states, checked when
    called (starts, grid, stack size): yields ``(step, block)`` at each
    recorded step, ``block`` a new (B, N) array of the states, record 0
    before the first step.  A non-finite value in any row stops the stack.
    """
    if not starts:
        raise ValueError("evolve_many needs at least one initial state")
    if any(psi0.grid != potential.grid for psi0 in starts):
        raise ValueError("potential and initial data must share a grid")
    checked_size("stack entries (starts x grid points)",
                 len(starts) * potential.grid.n, MAX_ENTRIES)
    return _strang_records(starts, potential, params)


def _strang_records(starts, potential, params):
    v = np.array([psi0.values for psi0 in starts])
    yield 0, v.copy()
    grid, dt, n_steps = potential.grid, params.dt, params.n_steps
    half = np.exp(-0.5j * dt * grid.xi_squared)
    full = np.exp(-1j * dt * grid.xi_squared)
    support = np.flatnonzero(potential.values)
    kick = -2j * dt * potential.values[support]
    # an overflow is reported by the finiteness check, not by numpy; set per
    # step, as an error state held across a yield leaks into the caller
    with np.errstate(over="ignore", invalid="ignore"):
        np.fft.fft(v, axis=1, out=v)
        v *= half
    for step in range(1, n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            np.fft.ifft(v, axis=1, out=v)
            w = v[:, support]
            np.multiply(w, np.exp(kick * (w.real**2 + w.imag**2)), out=w)
            v[:, support] = w
            np.fft.fft(v, axis=1, out=v)
        if not np.isfinite(v).all():
            raise BlowUpError(step, step * dt)
        if step % params.record_every == 0 or step == n_steps:
            yield step, _states(v, half)
        v *= full


def _states(v: np.ndarray, half: np.ndarray) -> np.ndarray:
    """A new array of the states one free half step past the Fourier-space
    stack v, made here so that the suspended kernel holds no reference to
    it while the caller reads it."""
    out = v * half
    return np.fft.ifft(out, axis=1, out=out)


def evolve(psi0: WaveField, potential: GriddedDensity, params: SolverParams,
           *, measure: AtomicMeasure, snapshots=None) -> Trajectory:
    """One run with its per-record diagnostics, and with record i written
    to ``snapshots / snapshot_name(i)`` when a directory is given.

    The weight profile of the measure and the run's record entries pass the
    size rule before the first step.  The weighted norm (and, when
    record_quartic is on, the quartic measure integral) is recorded against
    the measure; an empty measure gives the baseline weight 4.  What the
    diagnostics read of the grid and the measure is built once, before the
    first step: the weighted norm's ``hat_pairing`` and the interpolation
    tables of the atoms in the domain.  Each row passes ``check_record`` as
    its record arrives, record 0 before the first step, and only then is the
    record's snapshot written, so a non-finite diagnostic stops the run at
    its record's step with the files of the earlier records written; the
    quartic column is NaN and unchecked when record_quartic is off.
    """
    grid = potential.grid
    profile = weight_profile(measure)
    # bounds the points that the record diagnostics read and that the
    # snapshots write
    n_records = len(range(0, params.n_steps, params.record_every)) + 1
    checked_size("record entries (records x grid points)",
                 n_records * grid.n, MAX_ENTRIES)
    l2mu = hat_pairing(grid, profile.nk_squared)
    atoms = domain_atoms(grid, measure) if params.record_quartic else None
    checked = DIAGNOSTIC_COLUMNS[1:None if params.record_quartic else -1]
    if snapshots is not None:
        snapshots = Path(snapshots)
        snapshots.mkdir(parents=True, exist_ok=True)
    steps, rows = [], []
    for step, block in evolve_many([psi0], potential, params):
        s = WaveField(grid, block[0])
        del block  # s holds a copy; freed before the diagnostics are taken
        with np.errstate(over="ignore", invalid="ignore"):
            values = (mass(s), energy(s, potential), sobolev_norm(s, 1.0),
                      weighted_l2_norm(s, l2mu), sup_norm(s),
                      quartic_measure_integral(s, atoms)
                      if params.record_quartic else np.nan)
        check_record(step, params.dt, checked, values)
        if snapshots is not None:
            save_field_bin(s, snapshots / snapshot_name(len(steps)))
        steps.append(step)
        rows.append(values)
    return Trajectory(params,
                      {"t": np.array(steps) * params.dt,
                       **dict(zip(DIAGNOSTIC_COLUMNS[1:], np.array(rows).T))},
                      s)


def evolve_regularized(psi0: WaveField, mu: AtomicMeasure, eps: float,
                       params: SolverParams,
                       variant: str = "fully_truncated", *,
                       snapshots=None) -> Trajectory:
    """Evolution under the width-eps potential built from an atomic measure;
    ``snapshots`` is passed to ``evolve``."""
    potential = truncated_potential(mu, psi0.grid, eps, variant)
    return evolve(psi0, potential, params, measure=mu, snapshots=snapshots)


def oracle_evolve(psi0: WaveField, potential: GriddedDensity, t_final: float,
                  dt: float) -> WaveField:
    """Independent reference: classical 4th-order fixed-step integration of
    the spectral method-of-lines system; returns the final state.

    A dt that is not positive and finite is a ValueError, and the step
    count ceil(t_final / dt) passes the size rule, before the first step.
    The run aborts if the conserved norm drifts by more than 10%.
    """
    grid = psi0.grid
    if potential.grid != grid:
        raise ValueError("potential and initial data must share a grid")
    if not 0.0 < dt < np.inf:
        raise ValueError(f"oracle dt must be positive and finite, got {dt}")
    n = max(1, checked_size("oracle step count t_final / dt",
                            np.ceil(t_final / dt), MAX_STEPS))
    h = t_final / n
    xi2 = grid.xi_squared
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
