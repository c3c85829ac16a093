"""Parameter studies built on the solver and the sampling layer.

Each study returns a StudyReport: a small table (one row per parameter
value), fitted rates where a rate makes sense, and named pass/fail flags.
Reports serialize to CSV (the table) and JSON (everything).  The study
functions validate their own inputs and raise ConfigError (a ValueError) for
a bad one, which the CLI reports as a configuration problem.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from typing import Mapping, Sequence

import numpy as np

from . import rng as _rng
from .constants import CALIBRATION
from .errors import ConfigError
from .field import (FLOAT_FMT, Grid, WaveField, gaussian_field, hat_moments,
                    l2_norm, random_field, sobolev_norm)
from .measure import weight_profile, weighted_l2_norm
from .mollify import VARIANTS, check_resolution, truncated_potential
from .point_process import (AtomicMeasure, bernoulli_laplace_functional,
                            empirical_laplace_functional,
                            fixed_count_laplace_functional,
                            poisson_laplace_functional, sample_poisson,
                            smoothed_indicator)
from .solver import SolverParams, evolve_many, evolve_regularized

__all__ = [
    "StudyReport",
    "save_report_csv",
    "save_report_json",
    "eps_convergence_study",
    "stability_study",
    "moment_study",
    "laplace_study",
]


@dataclass
class StudyReport:
    """Tabular study output with fitted rates and pass/fail flags.

    ``constants`` records the frozen calibration values the flags compared
    against, so a report is interpretable without the library version.
    """

    name: str
    params: dict
    columns: dict[str, list]
    rates: dict[str, float] = dc_field(default_factory=dict)
    flags: dict[str, bool] = dc_field(default_factory=dict)
    constants: dict[str, float] = dc_field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError("all report columns must have equal length")

    def passed(self) -> bool:
        return all(self.flags.values())


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    if isinstance(v, (float, np.floating)):
        return FLOAT_FMT % v
    return str(v)


def save_report_csv(report: StudyReport, path) -> None:
    """One row per parameter value; floats at full precision."""
    names = list(report.columns)
    n_rows = len(report.columns[names[0]]) if names else 0
    lines = [",".join(names)]
    for i in range(n_rows):
        lines.append(",".join(_cell(report.columns[k][i]) for k in names))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def save_report_json(report: StudyReport, path) -> None:
    doc = {
        "name": report.name,
        "params": _plain(report.params),
        "columns": _plain(report.columns),
        "rates": _plain(report.rates),
        "flags": _plain(report.flags),
        "constants": _plain(report.constants),
        "passed": report.passed(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _loglog_slope(xs, ys) -> float:
    # degenerate data (exact zeros, e.g. the empty measure) fits no power
    # law; report rate 0 so rates stay finite
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if np.any(ys <= 0) or np.any(xs <= 0):
        return 0.0
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


EPS_DT_POWER = 1.5


def eps_convergence_study(psi0: WaveField, mu: AtomicMeasure,
                          eps_ladder: Sequence[float], params: SolverParams, *,
                          variant: str = "mollified_only") -> StudyReport:
    """Self-convergence in the smoothing width.

    For each value eps of a halving ladder (at least three entries) the study
    solves at eps and eps/2 and records D(eps) = sup over record times of the
    H^1 + weighted-L^2 distance between the two runs.  Consecutive pairs
    share solves, so a ladder of length m costs m + 1 runs.  Flags: D
    strictly decreasing along the ladder, and the last value below half the
    first.

    The splitting error grows steeply as the potential sharpens (empirically
    like dt^2 * eps^-2.2), so a uniform step would either drown the fine-eps
    differences in time-discretization error or waste work at coarse eps.
    Each solve therefore takes dt scaled by (eps / eps_max)^EPS_DT_POWER,
    snapped so every run records on the common grid of params.dt *
    record_every; params.dt is the step used at the coarsest width.  t_final
    must be a multiple of that record interval.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}")
    ladder = [float(e) for e in eps_ladder]
    if len(ladder) < 3:
        raise ConfigError("eps ladder needs at least three values")
    if any(abs(b - a / 2) > 1e-9 * a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("eps ladder must halve at every step")
    solve_eps = sorted({e for e in ladder} | {e / 2 for e in ladder}, reverse=True)
    check_resolution(psi0.grid, min(solve_eps))
    profile = weight_profile(mu)

    rec_interval = params.record_every * params.dt
    n_intervals = params.t_final / rec_interval
    if abs(n_intervals - round(n_intervals)) > 1e-9:
        raise ConfigError("t_final must be a multiple of record_every * dt "
                          "so all runs record at common times")
    eps_max = solve_eps[0]

    def run(eps: float):
        substeps = int(np.ceil(params.record_every
                               * (eps_max / eps) ** EPS_DT_POWER - 1e-9))
        local = SolverParams(dt=rec_interval / substeps,
                             t_final=params.t_final,
                             record_every=substeps,
                             record_quartic=params.record_quartic)
        return evolve_regularized(psi0, mu, eps, local, variant)

    runs = {eps: run(eps) for eps in solve_eps}

    d_h1, d_l2mu, d_sum = [], [], []
    for eps in ladder:
        coarse, fine = runs[eps], runs[eps / 2]
        h1s, l2s = [], []
        for a, b in zip(coarse.states, fine.states):
            diff = WaveField(psi0.grid, a.values - b.values)
            h1s.append(sobolev_norm(diff, 1.0))
            l2s.append(weighted_l2_norm(diff, profile))
        h1s, l2s = np.asarray(h1s), np.asarray(l2s)
        d_h1.append(float(np.max(h1s)))
        d_l2mu.append(float(np.max(l2s)))
        d_sum.append(float(np.max(h1s + l2s)))

    ratios = [float("nan")] + [d_sum[i] / d_sum[i - 1] for i in range(1, len(d_sum))]
    flags = {
        "strictly_decreasing": all(b < a for a, b in zip(d_sum, d_sum[1:])),
        "halving_gain": d_sum[-1] < 0.5 * d_sum[0],
    }
    rates = {
        "h1": _loglog_slope(ladder, d_h1),
        "l2mu": _loglog_slope(ladder, d_l2mu),
        "sum": _loglog_slope(ladder, d_sum),
    }
    return StudyReport(
        "eps_convergence",
        {"variant": variant, "dt_coarsest": params.dt,
         "dt_finest": runs[solve_eps[-1]].params.dt, "dt_power": EPS_DT_POWER,
         "t_final": params.t_final, "grid_n": psi0.grid.n,
         "half_length": psi0.grid.half_length,
         "atom_count": mu.count},
        {"eps": ladder, "d_h1": d_h1, "d_l2mu": d_l2mu, "d_sum": d_sum,
         "ratio": ratios},
        rates, flags)


def stability_study(psi0: WaveField, mu: AtomicMeasure, eps: float,
                    deltas: Sequence[float], params: SolverParams, seed: int, *,
                    variant: str = "fully_truncated") -> StudyReport:
    """Difference-ratio growth under initial-data perturbations.

    Perturbs psi0 by delta * g for a seeded unit-H^1 random field g, runs both
    trajectories over both time directions, and reports
    R(delta) = sup_{|t| <= T} ||psi - phi||_{H^-1} / delta together with the
    interaction size K = sup_t (||psi||_{H^1} ||psi||_{L^2_mu} + same for
    phi).  The potential is real, so evolving the conjugate data forward
    traces the conjugate of the backward orbit and every norm involved is
    conjugation invariant; that covers negative times with a forward solver.
    All 2 (1 + #deltas) runs share one potential and one step, so they
    advance as one stack through ``evolve_many``.

    A delta of zero is allowed and reports an exact bitwise match instead of
    a ratio; such rows carry r = nan and are excluded from the ratio flags.
    Flags: R varies by less than a factor of two across positive deltas,
    every such R stays below C * exp(C * K^2 (1 + K^2) * T^2) at the frozen
    C, and zero-delta rows match exactly.
    """
    deltas = [float(d) for d in deltas]
    if not deltas or any(d < 0 for d in deltas):
        raise ConfigError("deltas must be nonnegative")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ConfigError("deltas must be strictly decreasing")
    g = random_field(psi0.grid, _rng.generator(seed))
    c_env = CALIBRATION["stability_envelope_constant"]

    starts = [psi0.values] + [psi0.values + d * g.values for d in deltas]
    potential = truncated_potential(mu, psi0.grid, eps, variant)
    runs = evolve_many([WaveField(psi0.grid, v)
                        for v in starts + [np.conj(v) for v in starts]],
                       potential, params, measure=mu)
    fwd, bwd = runs[: len(starts)], runs[len(starts):]

    t_final = float(fwd[0].times[-1])
    r_vals, k_vals, env_vals, exact = [], [], [], []
    for idx, delta in enumerate(deltas, start=1):
        sup_diff = 0.0
        k = 0.0
        for base, traj in ((fwd[0], fwd[idx]), (bwd[0], bwd[idx])):
            diffs = [sobolev_norm(WaveField(psi0.grid, a.values - b.values),
                                  -1.0)
                     for a, b in zip(base.states, traj.states)]
            sup_diff = max(sup_diff, float(np.max(diffs)))
            k = max(k, float(np.max(
                base.diagnostics["h1"] * base.diagnostics["l2mu"]
                + traj.diagnostics["h1"] * traj.diagnostics["l2mu"])))
        exact.append(sup_diff == 0.0)
        r_vals.append(sup_diff / delta if delta > 0 else float("nan"))
        k_vals.append(k)
        # capped exponent: the flag compares against a finite ceiling
        exponent = min(c_env * k**2 * (1 + k**2) * t_final**2, 700.0)
        env_vals.append(c_env * float(np.exp(exponent)))

    pos = [r for r, d in zip(r_vals, deltas) if d > 0]
    flags = {
        "bounded_variation": (max(pos) < 2.0 * min(pos)) if pos else True,
        "within_envelope": all(r <= e for r, d, e
                               in zip(r_vals, deltas, env_vals) if d > 0),
        "zero_deltas_exact": all(x for x, d in zip(exact, deltas) if d == 0),
    }
    return StudyReport(
        "stability",
        {"eps": eps, "variant": variant, "dt": params.dt,
         "t_final": params.t_final, "seed": seed,
         "envelope_constant": c_env},
        {"delta": deltas, "r": r_vals, "k": k_vals, "envelope": env_vals,
         "exact_match": exact},
        {"max_over_min": (max(pos) / min(pos)) if pos else 0.0}, flags,
        {"stability_envelope_constant": c_env})


def _default_profiles(grid: Grid) -> dict[str, WaveField]:
    return {
        "gauss_wide": gaussian_field(grid, sigma=1.0),
        "gauss_shifted": gaussian_field(grid, sigma=0.5, center=3.0),
        "gauss_broad": gaussian_field(grid, sigma=2.0, center=-5.0),
    }


def moment_study(profiles: Mapping[str, WaveField] | None = None,
                 n_samples: int = 20000, seed: int = 0, *,
                 window: tuple[float, float] = (-32.0, 32.0),
                 intensity: float = 1.0) -> StudyReport:
    """Sampled weight statistics at the origin plus weighted-mass ratios.

    Estimates E[N_0^2] over unit-intensity samples and checks that the
    estimate moves by under 2% between n/2 and n samples and lands in the
    frozen reference band.  For each field profile it checks the first and
    second moments of ||f||_{L^2_mu}^2 against the frozen ratio bounds:
    E X <= c ||f||_{L^2}^2 and E X^2 <= c_2 ||f||_{L^2}^4.

    ``profiles`` maps names to fields; None gives three built-in Gaussians on
    the default grid.
    """
    if n_samples < 1000:
        raise ConfigError("need at least 1000 samples for stable statistics")
    if not intensity > 0:
        raise ConfigError("intensity must be positive")
    if profiles is None:
        profiles = _default_profiles(Grid(32.0, 4096))
    if not profiles:
        raise ConfigError("need at least one field profile")
    fields = list(profiles.values())
    if any(f.grid != fields[0].grid for f in fields[1:]):
        raise ConfigError("all profiles must share one grid")
    grid = fields[0].grid
    names = list(profiles)
    denoms = np.array([l2_norm(profiles[k]) ** 2 for k in names])
    # ||f||_{L^2_mu}^2 = sum_k N_k^2 h_k(f): the hat moments of each field
    # are computed once and paired with every sampled profile
    pairs = [hat_moments(profiles[k]) for k in names]
    ks = pairs[0][0]
    moments = np.array([h for _, h in pairs])

    n0sq = np.empty(n_samples)
    wsq = np.zeros((n_samples, len(names)))
    for i in range(n_samples):
        mu = sample_poisson(window, intensity, _rng.substream_seed(seed, i))
        profile = weight_profile(mu)
        n0sq[i] = profile.nk_squared(0)
        wsq[i] = moments @ profile.nk_squared(ks)

    half = float(np.mean(n0sq[: n_samples // 2]))
    full = float(np.mean(n0sq))
    stderr = float(np.std(n0sq, ddof=1) / np.sqrt(n_samples))
    rel_change = abs(full - half) / full
    band = CALIBRATION["expected_n0_squared_band"]
    bound = CALIBRATION["moment_ratio_bound"]
    bound_p2 = CALIBRATION["moment_ratio_bound_p2"]
    ratios = np.mean(wsq, axis=0) / denoms
    ratios_p2 = np.mean(wsq**2, axis=0) / denoms**2

    flags = {
        "n0_stabilized": rel_change < 0.02,
        "n0_in_band": band[0] <= full <= band[1],
        "ratios_bounded": bool(np.all(ratios <= bound)),
        "ratios_p2_bounded": bool(np.all(ratios_p2 <= bound_p2)),
    }
    return StudyReport(
        "moments",
        {"n_samples": n_samples, "seed": seed, "window": window,
         "intensity": intensity, "grid_n": grid.n,
         "half_length": grid.half_length},
        {"profile": names,
         "l2_squared": denoms.tolist(),
         "mean_weighted_squared": np.mean(wsq, axis=0).tolist(),
         "ratio": ratios.tolist(),
         "ratio_p2": ratios_p2.tolist()},
        {"n0_squared_half": half, "n0_squared_full": full,
         "n0_squared_stderr": stderr, "relative_change": rel_change},
        flags,
        {"expected_n0_squared_band": list(band),
         "moment_ratio_bound": bound, "moment_ratio_bound_p2": bound_p2})


def laplace_study(seed: int, *, n_samples: int = 100000) -> StudyReport:
    """Sampler validation against closed-form Laplace functionals.

    Four blocks: (1) count mean/variance of the unit-intensity process on a
    length-10 window against 10 within four standard errors; (2) empirical
    Laplace functionals for smoothed indicators of [0, 1] at heights
    {1/2, 1, 2} against the closed form within three standard errors, sharing
    one sample set across heights; (3) lattice-occupation functionals at
    p = h in {1/4, 1/16, 1/64} approaching the unit-intensity closed form
    monotonically; (4) fixed-count functionals at n = |window| in
    {10, 100, 1000} doing the same.
    """
    if n_samples < 1000:
        raise ConfigError("need at least 1000 samples")
    heights = (0.5, 1.0, 2.0)
    phis = [smoothed_indicator(0.0, 1.0, height=h) for h in heights]

    count_seed = _rng.substream_seed(seed, 0)
    lf_seed = _rng.substream_seed(seed, 1)

    counts = np.empty(n_samples)
    for i in range(n_samples):
        mu = sample_poisson((0.0, 10.0), 1.0, _rng.substream_seed(count_seed, i))
        counts[i] = mu.count
    c_mean = float(np.mean(counts))
    se_mean = float(np.std(counts, ddof=1) / np.sqrt(n_samples))
    d = counts - c_mean
    m2 = float(np.var(counts, ddof=1))
    m4 = float(np.mean(d**4))
    se_var = float(np.sqrt(max(m4 - (n_samples - 3) / (n_samples - 1) * m2**2,
                               0.0) / n_samples))

    emp, se = empirical_laplace_functional(
        lambda s: sample_poisson((-1.0, 2.0), 1.0, s), phis, n_samples, lf_seed)
    closed = np.array([poisson_laplace_functional(phi) for phi in phis])

    phi1 = phis[1]
    target = closed[1]
    bern_ps = (0.25, 0.0625, 0.015625)
    bern_gaps = [abs(bernoulli_laplace_functional(phi1, p, p) - target)
                 for p in bern_ps]
    fixed_ws = (10, 100, 1000)
    fixed_gaps = [abs(fixed_count_laplace_functional(phi1, (-1.0, w - 1.0), w)
                      - target) for w in fixed_ws]

    rows: list[tuple[str, float, float, float, bool]] = [
        ("count_mean", c_mean, 10.0, 4 * se_mean, abs(c_mean - 10) <= 4 * se_mean),
        ("count_var", m2, 10.0, 4 * se_var, abs(m2 - 10) <= 4 * se_var),
    ]
    for h, e, s, c in zip(heights, emp, se, closed):
        rows.append((f"lf_height_{h:g}", float(e), float(c), 3 * float(s),
                     abs(e - c) <= 3 * s))
    prev = float("inf")
    for p, gap in zip(bern_ps, bern_gaps):
        rows.append((f"bernoulli_gap_p_{p:g}", gap, 0.0, prev, gap < prev))
        prev = gap
    prev = float("inf")
    for w, gap in zip(fixed_ws, fixed_gaps):
        rows.append((f"fixed_count_gap_n_{w}", gap, 0.0, prev, gap < prev))
        prev = gap

    flags = {
        "count_mean": rows[0][4],
        "count_variance": rows[1][4],
        "lf_within_3se": all(r[4] for r in rows[2:5]),
        "bernoulli_ladder_decreasing": all(r[4] for r in rows[5:8]),
        "fixed_count_ladder_decreasing": all(r[4] for r in rows[8:11]),
    }
    return StudyReport(
        "laplace",
        {"seed": seed, "n_samples": n_samples, "heights": list(heights)},
        {"check": [r[0] for r in rows],
         "observed": [r[1] for r in rows],
         "expected": [r[2] for r in rows],
         "tolerance": [r[3] for r in rows],
         "ok": [r[4] for r in rows]},
        {}, flags)
