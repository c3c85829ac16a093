"""Recompute the frozen calibration constants from scratch.

Run as ``python3 -m sprinkled_nls.calibration`` (add ``--fast`` for a cheap
smoke pass).  Each measurement prints next to the frozen value, and the run
exits 1 if any measurement falls outside its frozen value: a scalar is an
upper bound, a (lo, hi) pair a bracket that the measured range must lie in.
Re-freeze by editing the constants module, rounding outward.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import rng as _rng
from .constants import CALIBRATION
from .diagnostics import tail_norm
from .field import (Grid, WaveField, free_propagator, gaussian_field,
                    hat_pairing, l2_norm, lp_project, random_field,
                    sobolev_norm, sup_norm)
from .measure import block_norm, chi, weight_profile, weighted_l2_norm
from .mollify import mollified_density, truncated_potential
from .point_process import sample_poisson
from .solver import SolverParams, checked_records, evolve_many
from .studies import (eps_convergence_study, moment_study, poisson_sweep,
                      stability_study)

SEED = 0xCA1B


def measure_sup_interpolation(n_fields: int) -> float:
    """Largest observed sup|f| / sqrt(||f|| * ||f||_H1).

    Includes smoothed two-sided exponentials, the extremal family for the
    underlying interpolation inequality, alongside random fields.
    """
    grid = Grid(32.0, 4096)
    best = 0.0
    gen = _rng.generator(SEED)
    for i in range(n_fields):
        f = random_field(grid, gen, spectral_width=(1.0, 3.0, 8.0)[i % 3])
        best = max(best, sup_norm(f) / np.sqrt(l2_norm(f) * sobolev_norm(f, 1.0)))
    for a in np.logspace(-1, 1, 21):
        fhat = 2 * a / (a**2 + grid.xi**2)
        vals = np.fft.ifft(fhat) * grid.n / (2 * grid.half_length)
        f = WaveField(grid, np.fft.fftshift(vals))
        best = max(best, sup_norm(f) / np.sqrt(l2_norm(f) * sobolev_norm(f, 1.0)))
    return best


def measure_bandlimited_sup(n_fields: int) -> float:
    """Largest observed sup|P_n f| / (sqrt(n) * ||P_n f||)."""
    grid = Grid(32.0, 4096)
    best = 0.0
    gen = _rng.generator(SEED + 1)
    for i in range(n_fields):
        n_cut = (8.0, 32.0, 96.0)[i % 3]
        f = lp_project(random_field(grid, gen, spectral_width=2 * n_cut), n_cut)
        best = max(best, sup_norm(f) / (np.sqrt(n_cut) * l2_norm(f)))
    for n_cut in (8.0, 32.0, 96.0):
        # flat spectrum across the full pass-plus-ramp band, the extremal shape
        fhat = (np.abs(grid.xi) <= 2 * n_cut).astype(complex)
        f = WaveField(grid, np.fft.ifft(fhat))
        best = max(best, sup_norm(f) / (np.sqrt(n_cut) * l2_norm(f)))
    return best


def measure_dispersive() -> tuple[float, float]:
    """Range of sqrt(t) * sup|free evolution| for a unit-mass bump."""
    grid = Grid(512.0, 1 << 15)
    sigma = 0.5
    g = gaussian_field(grid, sigma=sigma, amplitude=1.0 / (sigma * np.sqrt(np.pi)))
    vals = [np.sqrt(t) * sup_norm(free_propagator(g, t)) for t in (2.0, 8.0, 32.0)]
    return min(vals), max(vals)


def _sweep_measures(window: tuple[float, float], seed: int, n_samples: int):
    """The unit-intensity sweep's samples one AtomicMeasure at a time."""
    for batch in poisson_sweep(window, 1.0, seed, n_samples):
        yield from map(batch.measure, range(len(batch)))


def measure_norm_equivalence(n_cases: int) -> tuple[float, float]:
    """Observed range of block_norm^2 / weighted_l2_norm^2."""
    grid = Grid(32.0, 4096)
    gen = _rng.generator(SEED + 2)
    lo, hi = np.inf, 0.0
    for mu in _sweep_measures((-32.0, 32.0), SEED + 3, n_cases):
        profile = weight_profile(mu)
        l2mu = hat_pairing(grid, profile.nk_squared)
        for width in (1.0, 4.0):
            f = random_field(grid, gen, spectral_width=width)
            ratio = (block_norm(f, profile) / weighted_l2_norm(f, l2mu)) ** 2
            lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi


def measure_partition_overlap() -> tuple[float, float]:
    """Pointwise range of sum_k chi_k(x)^2; brackets the norm ratio."""
    x = np.linspace(0.0, 1.0, 100001)[:-1]
    s = chi(x, 0) ** 2 + chi(x, 1) ** 2
    return float(np.min(s)), float(np.max(s))


def measure_localized_mass(n_samples: int) -> float:
    """Largest observed integral of chi_k against a mollified measure / N_k."""
    grid = Grid(32.0, 4096)
    best = 0.0
    for mu in _sweep_measures((-30.0, 30.0), SEED + 4, n_samples):
        profile = weight_profile(mu)
        for eps in (0.05, 0.2):
            dens = mollified_density(mu, grid, eps)
            for k in range(-31, 32):
                sl = slice(*np.searchsorted(grid.x, (k - 1.0, k + 1.0)))
                val = float(np.dot(chi(grid.x[sl], k), dens.values[sl])) * grid.dx
                nk = np.sqrt(profile.nk_squared(k))
                best = max(best, val / nk)
    return best


def measure_tail_growth() -> float:
    """Largest observed (max tail^2 - tail(0)^2) / (lam * T * max h1^2),
    the H^1 norm and the tails taken from each record through the solver's
    ``checked_records``, like a study's."""
    grid = Grid(32.0, 2048)
    psi0 = gaussian_field(grid)
    params = SolverParams(dt=1e-3, t_final=1.0, record_every=50)
    lams = (0.25, 0.5, 1.0)
    atom = sample_poisson((-30.0, 30.0), 1.0, _rng.substream_seed(SEED + 5, 0))
    single = sample_poisson((-0.5, 0.5), 1.0, _rng.substream_seed(SEED + 5, 1))

    def norms(block):
        s = WaveField(grid, block[0])
        return sobolev_norm(s, 1.0), [tail_norm(s, lam) for lam in lams]

    best = 0.0
    for mu, eps in ((atom, 0.2), (single, 0.1)):
        potential = truncated_potential(mu, grid, eps, "fully_truncated")
        h1s, tails = zip(*(values for _, values in checked_records(
            [evolve_many([psi0], potential, params)], params.dt,
            ("H^1 norm", "tail norm"), norms)))
        h1_max = float(np.max(h1s))
        for lam, lam_tails in zip(lams, np.array(tails).T):
            growth = float(np.max(lam_tails**2) - lam_tails[0] ** 2)
            best = max(best, growth / (lam * params.n_steps * params.dt
                                        * h1_max**2))
    return best


def measure_stability_envelope() -> float:
    """Smallest C with R = C exp(C K^2 (1+K^2) T^2), maximized over runs."""
    grid = Grid(32.0, 2048)
    psi0 = gaussian_field(grid)
    single = sample_poisson((-0.5, 0.5), 1.0, _rng.substream_seed(SEED + 6, 1))
    best = 0.0
    for t_final, seed in ((0.5, SEED + 7), (1.0, SEED + 8)):
        params = SolverParams(dt=1e-3, t_final=t_final, record_every=50)
        rep = stability_study(psi0, single, 0.1, (1e-2, 1e-3, 1e-4), params,
                              seed)
        for r, k in zip(rep.columns["r"], rep.columns["k"]):
            a = k**2 * (1 + k**2) * t_final**2
            c_lo, c_hi = 1e-12, 10.0
            for _ in range(200):
                c_mid = 0.5 * (c_lo + c_hi)
                if np.log(c_mid) + c_mid * a < np.log(r):
                    c_lo = c_mid
                else:
                    c_hi = c_mid
            best = max(best, c_hi)
    return best


def measure_moments(n_samples: int) -> dict:
    rep = moment_study(None, n_samples, SEED + 9)
    return {
        "expected_n0_squared": rep.rates["n0_squared_full"],
        "moment_ratio_max": max(rep.columns["ratio"]),
        "moment_ratio_p2_max": max(rep.columns["ratio_p2"]),
    }


def measure_cauchy_ratio() -> float:
    """Largest per-rung D ratio in a halving-ladder self-convergence run."""
    grid = Grid(16.0, 8192)
    psi0 = gaussian_field(grid)
    mu = sample_poisson((-14.0, 14.0), 1.0, _rng.substream_seed(SEED + 10, 0))
    params = SolverParams(dt=1e-3, t_final=0.25, record_every=50)
    rep = eps_convergence_study(psi0, mu, (0.4, 0.2, 0.1), params)
    return max(r for r in rep.columns["ratio"] if np.isfinite(r))


def measure_all(fast: bool) -> dict:
    """Every calibrated quantity, keyed like CALIBRATION; brackets are
    measured (lo, hi) ranges."""
    scale = 10 if fast else 1
    measured: dict[str, object] = {}
    measured["sup_interpolation_constant"] = measure_sup_interpolation(200 // scale)
    measured["bandlimited_sup_constant"] = measure_bandlimited_sup(120 // scale)
    measured["dispersive_bracket"] = measure_dispersive()
    measured["norm_equivalence_bracket"] = measure_norm_equivalence(60 // scale)
    measured["partition_overlap_bracket"] = measure_partition_overlap()
    measured["localized_mass_constant"] = measure_localized_mass(200 // scale)
    measured["tail_growth_constant"] = measure_tail_growth()
    measured["stability_envelope_constant"] = measure_stability_envelope()
    moments = measure_moments(20000 // scale)
    measured["expected_n0_squared_band"] = (moments["expected_n0_squared"],
                                            moments["expected_n0_squared"])
    measured["moment_ratio_bound"] = moments["moment_ratio_max"]
    measured["moment_ratio_bound_p2"] = moments["moment_ratio_p2_max"]
    measured["cauchy_ratio_bound"] = measure_cauchy_ratio()
    return measured


def _inside(val, frozen) -> bool:
    """val <= a scalar frozen bound, or a (lo, hi) val inside a bracket."""
    if isinstance(frozen, tuple):
        return frozen[0] <= val[0] and val[1] <= frozen[1]
    return val <= frozen


def main(fast: bool) -> int:
    """Print every measurement next to its frozen value; return 1 if any
    falls outside it, else 0."""
    measured = measure_all(fast)
    bad = [k for k, v in measured.items() if not _inside(v, CALIBRATION[k])]
    width = max(len(k) for k in measured)
    print(f"{'constant':<{width}}  {'measured':>24}  frozen")
    for key, val in measured.items():
        if isinstance(val, tuple):
            shown = "(" + ", ".join(f"{v:.6g}" for v in val) + ")"
        else:
            shown = f"{val:.6g}"
        mark = "  OUTSIDE" if key in bad else ""
        print(f"{key:<{width}}  {shown:>24}  {CALIBRATION[key]}{mark}")
    if bad:
        print("outside their frozen values: " + ", ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fast", action="store_true",
                    help="reduced sample counts for a smoke pass")
    sys.exit(main(ap.parse_args().fast))
