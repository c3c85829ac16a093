"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with the measured numbers.

Budgets are wall-clock seconds on a desktop-class core.  Seeds are frozen so
every run checks identical inputs; margins were verified against reseeded
families before freezing.
"""
import time

import numpy as np

from sprinkled_nls import rng as _rng
from sprinkled_nls.cli import main as cli_main
from sprinkled_nls.constants import CALIBRATION
from sprinkled_nls.diagnostics import domain_atoms, quartic_measure_integral
from sprinkled_nls.field import (Grid, WaveField, gaussian_field, l2_norm,
                                 random_field)
from sprinkled_nls.measure import weight_profile
from sprinkled_nls.mollify import truncated_potential
from sprinkled_nls.point_process import AtomicMeasure, sample_poisson
from sprinkled_nls.solver import SolverParams, evolve_regularized, oracle_evolve
from sprinkled_nls.studies import (eps_convergence_study, laplace_study,
                                   moment_study, stability_study)

SEED = 20260818


def _line(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'} "
          f"({detail})")


def test_criterion_01_weight_envelope_law():
    """1000 sampled measures: floor, unit-Lipschitz envelope, interval-mass
    domination, exact node interpolation."""
    t0 = time.monotonic()
    x = np.linspace(-33.0, 33.0, 265)
    h = x[1] - x[0]
    ok = True
    for i in range(1000):
        mu = sample_poisson((-32.0, 32.0), 1.0, _rng.substream_seed(SEED, i))
        prof = weight_profile(mu)
        ks = np.arange(prof.k_start - 3, prof.k_end + 4)
        nk2 = prof.nk_squared(ks)
        ok &= bool(np.all(nk2 >= 4.0))
        ok &= bool(np.all(np.abs(np.diff(nk2)) <= 1.0 + 1e-12))
        occ = np.floor(mu.positions + 0.5).astype(np.int64)
        for k in np.unique(occ):
            m = float(mu.masses[occ == k].sum())
            ok &= m <= np.sqrt(float(prof.nk_squared(k))) + 1e-12
        ok &= bool(np.max(np.abs(np.diff(prof.weight(x))))
                   <= h * (1.0 + 1e-12))
        ok &= bool(np.all(prof.weight(ks.astype(float)) == nk2))
        if not ok:
            break
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _line(1, "weight envelope law", ok, f"1000 samples, {elapsed:.1f}s")
    assert ok


def test_criterion_02_mass_and_energy_conservation():
    """10 sampled potentials at eps = 0.1: relative mass drift < 1e-9 and the
    max energy wobble cut by ~4x when the step halves."""
    t0 = time.monotonic()
    grid = Grid(32.0, 4096)
    psi0 = gaussian_field(grid)
    drifts, factors = [], []
    for i in range(10):
        mu = sample_poisson((-32.0, 32.0), 1.0,
                            _rng.substream_seed(SEED + 2, i))
        ed = {}
        for dt, rec in ((1e-3, 200), (5e-4, 400)):
            traj = evolve_regularized(
                psi0, mu, 0.1,
                SolverParams(dt=dt, t_final=1.0, record_every=rec,
                             record_quartic=False))
            m = traj.diagnostics["mass"]
            e = traj.diagnostics["energy"]
            if dt == 1e-3:
                drifts.append(abs(m[-1] - m[0]) / m[0])
            ed[dt] = np.max(np.abs(e - e[0])) / abs(e[0])
        factors.append(ed[1e-3] / ed[5e-4])
    elapsed = time.monotonic() - t0
    mass_ok = max(drifts) < 1e-9
    factor_ok = all(3.2 <= f <= 4.8 for f in factors)
    ok = mass_ok and factor_ok and elapsed < 120.0
    _line(2, "conservation", ok,
          f"max mass drift {max(drifts):.2e}, energy halving factors "
          + " ".join(f"{f:.2f}" for f in factors) + f", {elapsed:.1f}s")
    assert ok, (
        "energy wobble at dt = 1e-3 with eps = 0.1 is step-size resonance: "
        "on this grid dt * xi_N^2 / 2pi = 6.43, so a mode with dt * xi^2 = "
        "2pi m sees an identity free flight and its kicks add up; no mode "
        "resonates once dt < 2pi / xi_N^2 = 1.55e-4, and the 4x law holds "
        "from dt <= 1.25e-4.  The independent integrator conserves energy to "
        f"1e-8 here.  factors: {[f'{f:.2f}' for f in factors]}")


def test_criterion_03_free_gaussian_closed_form():
    t0 = time.monotonic()
    grid = Grid(32.0, 4096)
    psi0 = gaussian_field(grid)
    empty = AtomicMeasure((-32.0, 32.0), np.empty(0), np.empty(0))
    traj = evolve_regularized(psi0, empty, 0.2,
                              SolverParams(dt=1e-2, t_final=1.0,
                                           record_every=100,
                                           record_quartic=False))
    z = 1.0 + 4.0j
    exact = np.exp(-grid.x**2 / z) / np.sqrt(z)
    err = l2_norm(WaveField(grid, traj.final.values - exact))
    elapsed = time.monotonic() - t0
    ok = err < 1e-10 and elapsed < 5.0
    _line(3, "free evolution closed form", ok,
          f"L2 error {err:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_04_solver_cross_validation():
    t0 = time.monotonic()
    grid = Grid(16.0, 512)
    psi0 = gaussian_field(grid)
    mu = AtomicMeasure((-16.0, 16.0), np.array([0.3]), np.array([1.0]))
    pot = truncated_potential(mu, grid, 0.2, "fully_truncated")
    traj = evolve_regularized(psi0, mu, 0.2,
                              SolverParams(dt=1e-5, t_final=0.1,
                                           record_every=10000,
                                           record_quartic=False),
                              "fully_truncated")
    ref = oracle_evolve(psi0, pot, 0.1, dt=grid.dx**2 / 64.0)
    dist = l2_norm(WaveField(grid, traj.final.values - ref.values))
    elapsed = time.monotonic() - t0
    ok = dist < 1e-6 and elapsed < 30.0
    _line(4, "split step vs independent integrator", ok,
          f"L2 distance {dist:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_05_smoothing_width_convergence():
    """10 sampled measures: D(eps) strictly decreasing over the halving
    ladder and D(0.05) < D(0.4)/2 for every sample; mean fitted rate is
    reported, not gated."""
    t0 = time.monotonic()
    grid = Grid(16.0, 16384)
    psi0 = gaussian_field(grid)
    params = SolverParams(dt=1e-3, t_final=0.1, record_every=25,
                          record_quartic=False)
    ok = True
    rates = []
    for i in range(10):
        mu = sample_poisson((-14.0, 14.0), 1.0,
                            _rng.substream_seed(SEED + 5, i))
        rep = eps_convergence_study(psi0, mu, (0.4, 0.2, 0.1, 0.05), params)
        ok &= rep.flags["strictly_decreasing"] and rep.flags["halving_gain"]
        rates.append(rep.rates["sum"])
    elapsed = time.monotonic() - t0
    ok &= elapsed < 600.0
    _line(5, "smoothing width convergence", ok,
          f"10 samples monotone+halving, mean rate {np.mean(rates):.2f} "
          f"(reported, not gated), {elapsed:.0f}s")
    assert ok


def test_criterion_06_perturbation_stability():
    t0 = time.monotonic()
    grid = Grid(32.0, 2048)
    single = sample_poisson((-0.5, 0.5), 1.0,
                            _rng.substream_seed(0xCA1B + 6, 1))
    rep = stability_study(gaussian_field(grid), single, 0.1,
                          (1e-2, 1e-3, 1e-4),
                          SolverParams(dt=1e-3, t_final=1.0, record_every=50,
                                       record_quartic=False), 0xCA1B + 8)
    elapsed = time.monotonic() - t0
    ok = (rep.flags["bounded_variation"] and rep.flags["within_envelope"]
          and elapsed < 180.0)
    _line(6, "perturbation growth ratio", ok,
          f"R spread {rep.rates['max_over_min']:.4f} (< 2), envelope "
          f"constant {CALIBRATION['stability_envelope_constant']:g}, "
          f"{elapsed:.0f}s")
    assert ok


def test_criterion_07_point_process_statistics():
    t0 = time.monotonic()
    rep = laplace_study(SEED + 7, n_samples=100000)
    elapsed = time.monotonic() - t0
    ok = rep.passed() and elapsed < 60.0
    _line(7, "point process statistics", ok,
          ", ".join(f"{k}={'ok' if v else 'BAD'}"
                    for k, v in rep.flags.items()) + f", {elapsed:.0f}s")
    assert ok


def test_criterion_08_weight_moment_bounds():
    t0 = time.monotonic()
    rep = moment_study(None, 10000, SEED + 8)
    elapsed = time.monotonic() - t0
    ok = (rep.flags["n0_stabilized"] and rep.flags["ratios_bounded"]
          and rep.passed() and elapsed < 60.0)
    _line(8, "weight moment bounds", ok,
          f"E[N0^2] = {rep.rates['n0_squared_full']:.2f}, doubling change "
          f"{100 * rep.rates['relative_change']:.2f}%, max ratio "
          f"{max(rep.columns['ratio']):.2f} <= "
          f"{CALIBRATION['moment_ratio_bound']:g}, {elapsed:.0f}s")
    assert ok


def test_criterion_09_mollification_consistency():
    """100 seeded (field, measure) pairs: the gap between the smoothed
    quartic term and its atomic limit shrinks at every rung of the
    width ladder."""
    t0 = time.monotonic()
    grid = Grid(16.0, 8192)
    ok = True
    worst = 0.0
    for i in range(100):
        f = random_field(grid, _rng.generator(_rng.substream_seed(0, 2 * i)),
                         spectral_width=1.0)
        mu = sample_poisson((-14.0, 14.0), 1.0,
                            _rng.substream_seed(0, 2 * i + 1))
        target = quartic_measure_integral(f, domain_atoms(grid, mu))
        gaps = []
        for eps in (0.4, 0.2, 0.1, 0.05):
            pot = truncated_potential(mu, grid, eps, "mollified_only")
            gaps.append(abs(np.trapezoid(np.abs(f.values) ** 4 * pot.values,
                                         dx=grid.dx) - target))
        ok &= all(b < a for a, b in zip(gaps, gaps[1:]))
        worst = max(worst, max(b / a for a, b in zip(gaps, gaps[1:])))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    _line(9, "mollification consistency", ok,
          f"100 pairs monotone, worst rung ratio {worst:.2f}, "
          f"{elapsed:.1f}s")
    assert ok


def test_criterion_10_byte_identical_reruns(tmp_path):
    t0 = time.monotonic()
    solve_args = ["--override", "half_length=8", "--override", "n_points=512",
                  "--override", "window_lo=-8", "--override", "window_hi=8",
                  "--override", "initial=random", "--override", "eps=0.4",
                  "--override", "dt=0.01", "--override", "t_final=0.1",
                  "--override", "record_every=5"]
    pairs = []
    for tag, argv in (
        ("sample", ["sample", "--seed", "12"]),
        ("solve", ["solve", "--seed", "12", *solve_args]),
        ("study", ["study", "--seed", "0", "--override", "study=moments",
                   "--override", "n_samples=1000"]),
    ):
        payloads = []
        for rerun in ("a", "b"):
            out = tmp_path / f"{tag}_{rerun}"
            assert cli_main([*argv, "--out", str(out)]) == 0
            name = {"sample": "atoms.csv", "solve": "diagnostics.csv",
                    "study": "study_moments.csv"}[tag]
            payloads.append((out / name).read_bytes())
        pairs.append(payloads[0] == payloads[1])
    elapsed = time.monotonic() - t0
    ok = all(pairs)
    _line(10, "deterministic reruns", ok,
          f"sample/solve/study byte-identical = {pairs}, {elapsed:.1f}s")
    assert ok
