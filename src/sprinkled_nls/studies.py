"""Parameter studies built on the solver and the sampling layer.

Each study returns a StudyReport: a small table (one row per parameter
value), fitted rates where a rate makes sense, and named pass/fail flags.
Reports serialize to CSV (the table) and JSON (everything).  The study
functions validate their own inputs and raise ConfigError (a ValueError) for
a bad one, which the CLI reports as a configuration problem.  The stepped
studies read each record's norms through the solver's ``checked_records``.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field as dc_field
from typing import Iterator, Sequence

import numpy as np

from . import rng as _rng
from .constants import CALIBRATION
from .errors import MAX_ENTRIES, ConfigError, checked_size
from .field import (Grid, WaveField, gaussian_field, hat_moments,
                    hat_pairing, l2_norm, random_field, sobolev_norm)
from .measure import weight_profile, weighted_l2_norm
from .mollify import truncated_potential
from .payload import write_csv, write_json
from .point_process import (AtomicMeasure, PoissonBatch, SmoothedIndicator,
                            bernoulli_laplace_functional,
                            empirical_laplace_functional,
                            fixed_count_laplace_functional,
                            poisson_laplace_functional, sample_poisson)
from .solver import SolverParams, checked_records, evolve_many

__all__ = [
    "poisson_sweep",
    "StudyReport",
    "save_report_csv",
    "save_report_json",
    "eps_convergence_study",
    "stability_study",
    "moment_study",
    "laplace_study",
]


# samples drawn per sample_poisson call.  Each chunk pays about 45 numpy
# calls, so at 10,000 samples on a 2-core x86-64 host the moment study took
# about 109, 89 and 92 ms at chunks of 64, 128 and 256; a 1,024 seed block
# alone ran 64 in about 106 ms.  At 256 the study's traced peak (1.45 MiB)
# passes its 1.25 MiB bound, where 128 holds 1.02 MiB
SWEEP_CHUNK = 128
# samples whose seeds one substream_seeds pass derives, so the hash's fixed
# cost is paid per block, not per chunk
SEED_BLOCK = 4 * SWEEP_CHUNK


def poisson_sweep(window: tuple[float, float], intensity: float, seed: int,
                  n_samples: int) -> Iterator[PoissonBatch]:
    """Lazily draw a Monte-Carlo sweep in PoissonBatch chunks of SWEEP_CHUNK
    samples (the last may be shorter), one ``sample_poisson`` call each.
    The seeds of SEED_BLOCK samples are derived in one pass when the first
    chunk of their block is read, so the sweep derives at most one block
    ahead of its reader.  Sample i is, bit for bit, ``sample_poisson(window,
    intensity, substream_seed(seed, i))``, so every sample is reproducible
    and independent of the chunking and of the order of reading."""
    for block in range(0, n_samples, SEED_BLOCK):
        seeds = _rng.substream_seeds(seed, block,
                                     min(block + SEED_BLOCK, n_samples))
        for start in range(0, len(seeds), SWEEP_CHUNK):
            yield sample_poisson(window, intensity,
                                 seeds[start:start + SWEEP_CHUNK])


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


def save_report_csv(report: StudyReport, path) -> None:
    """One row per parameter value; floats at full precision."""
    write_csv(path, report.columns)


def save_report_json(report: StudyReport, path) -> None:
    write_json(path, {**asdict(report), "passed": report.passed()})


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

    For each value eps of a halving ladder (at least three entries, each
    exactly half the one before) the study solves at eps and eps/2 and
    records D(eps) = sup over record times of the H^1 + weighted-L^2
    distance between the two runs.  Consecutive pairs share solves, so a
    ladder of length m costs exactly m + 1 runs, stepped in lockstep: each
    record's distances are checked as the runs reach it, record 0 first, and
    only running maxima are kept.  Flags: D strictly decreasing along the
    ladder, and the last value below half the first.

    The splitting error grows steeply as the potential sharpens (empirically
    like dt^2 * eps^-2.2), so a uniform step would either drown the fine-eps
    differences in time-discretization error or waste work at coarse eps.
    Each solve therefore takes dt scaled by (eps / eps_max)^EPS_DT_POWER,
    snapped so every run records on the common grid of params.dt *
    record_every; params.dt is the step used at the coarsest width.  t_final
    must be a multiple of that record interval.
    """
    ladder = [float(e) for e in eps_ladder]
    if len(ladder) < 3:
        raise ConfigError("eps ladder needs at least three values")
    if any(b != a / 2 for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("each eps rung must be exactly half the one before")
    widths = ladder + [ladder[-1] / 2]

    rec_interval = params.record_every * params.dt
    n_intervals = params.t_final / rec_interval
    if abs(n_intervals - round(n_intervals)) > 1e-9:
        raise ConfigError("t_final must be a multiple of record_every * dt "
                          "so all runs record at common times")

    def params_at(eps: float) -> SolverParams:
        substeps = int(np.ceil(params.record_every
                               * (widths[0] / eps) ** EPS_DT_POWER - 1e-9))
        return SolverParams(dt=rec_interval / substeps,
                            t_final=params.t_final, record_every=substeps)

    # every width meets every rule before any width steps
    setups = [(truncated_potential(mu, psi0.grid, eps, variant), params_at(eps))
              for eps in widths]
    l2mu = hat_pairing(psi0.grid, weight_profile(mu).nk_squared)

    def distances(*blocks):
        diffs = (WaveField(psi0.grid, a[0] - b[0])
                 for a, b in zip(blocks, blocks[1:]))
        return np.array([(sobolev_norm(d, 1.0), weighted_l2_norm(d, l2mu))
                         for d in diffs]).T

    runs = [evolve_many([psi0], potential, p) for potential, p in setups]
    sups = np.zeros((3, len(ladder)))  # D's H^1, L^2_mu and sum parts
    # a record's step is counted in the coarsest run's dt, params.dt
    for _, (h1s, l2s) in checked_records(
            runs, params.dt, ("H^1 distance", "L^2_mu distance"), distances):
        np.maximum(sups, (h1s, l2s, h1s + l2s), out=sups)
    d_h1, d_l2mu, d_sum = sups.tolist()

    # a zero D (a start that is zero on the grid) has no ratio, like D's first
    ratios = [float("nan")] + [b / a if a else float("nan")
                               for a, b in zip(d_sum, d_sum[1:])]
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
         "dt_finest": setups[-1][1].dt, "dt_power": EPS_DT_POWER,
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

    Perturbs psi0 by delta * g for a seeded unit-H^1 random field g and each
    delta of a strictly decreasing list of sizes with 0 < delta < inf, runs
    both trajectories over both time directions, and reports
    R(delta) = sup_{|t| <= T} ||psi - phi||_{H^-1} / delta together with the
    interaction size K = sup_t (||psi||_{H^1} ||psi||_{L^2_mu} + same for
    phi).  The potential is real, so evolving the conjugate data forward
    traces the conjugate of the backward orbit and every norm involved is
    conjugation invariant; that covers negative times with a forward solver.
    The runs share one potential and one step, so they advance as one stack
    through ``evolve_many``: all 2 (1 + #deltas) of them for a complex
    psi0, one fewer for a real psi0, whose conjugate is psi0 itself and
    whose backward base run is therefore the forward one.  Each record's
    norms (K's once per stepped row) are checked as the stack reaches it,
    record 0 first, and only running sups are kept.

    Flags: R varies by less than a factor of two across deltas, and every R
    stays below C * exp(C * K^2 (1 + K^2) * T^2) at the frozen C.
    """
    deltas = [float(d) for d in deltas]
    if not deltas or not all(0 < d < np.inf for d in deltas):
        raise ConfigError("deltas must be positive and finite")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ConfigError("deltas must be strictly decreasing")
    g = random_field(psi0.grid, _rng.generator(seed))
    c_env = CALIBRATION["stability_envelope_constant"]

    starts = [psi0.values] + [psi0.values + d * g.values for d in deltas]
    conjugates = [np.conj(v) for v in starts]
    real = np.array_equal(psi0.values, conjugates[0])
    potential = truncated_potential(mu, psi0.grid, eps, variant)
    l2mu = hat_pairing(psi0.grid, weight_profile(mu).nk_squared)
    stepped = [WaveField(psi0.grid, v)
               for v in starts + conjugates[1 if real else 0:]]
    n = len(starts)
    # run i is stepped row rows[i]: the n forward runs, then the n backward
    # ones, whose base is the forward base's row for a real psi0
    rows = list(range(len(stepped)))
    if real:
        rows.insert(n, 0)

    def norms(block):
        # ||psi||_{H^1} ||psi||_{L^2_mu} of every stepped row, read for
        # every run through rows
        sizes = np.array([sobolev_norm(f, 1.0) * weighted_l2_norm(f, l2mu)
                          for f in (WaveField(psi0.grid, s)
                                    for s in block)])[rows]
        # per delta, ||psi - phi||_{H^-1} of the forward pair, then the
        # backward pair
        return sizes, np.array([[sobolev_norm(WaveField(
            psi0.grid, block[rows[base]] - block[rows[base + idx]]), -1.0)
                                 for base in (0, n)] for idx in range(1, n)])

    sups = np.zeros((2, n - 1))  # per delta, sup of K and of H^-1 distance
    for _, (sizes, diffs) in checked_records(
            [evolve_many(stepped, potential, params)], params.dt,
            ("H^1 x L^2_mu size", "H^-1 difference"), norms):
        np.maximum(sups, (np.maximum(sizes[0] + sizes[1:n],
                                     sizes[n] + sizes[n + 1:]),
                          np.max(diffs, axis=1)), out=sups)

    t_final = params.n_steps * params.dt
    r_vals, k_vals, env_vals = [], [], []
    for k, d, delta in zip(*sups.tolist(), deltas):
        r_vals.append(d / delta)
        k_vals.append(k)
        # capped exponent: the flag compares against a finite ceiling; K
        # past 1e100 saturates it (k**2 of a larger float would overflow)
        kc = min(k, 1e100)
        exponent = min(c_env * kc**2 * (1 + kc**2) * t_final**2, 700.0)
        env_vals.append(c_env * float(np.exp(exponent)))

    flags = {
        "bounded_variation": max(r_vals) < 2.0 * min(r_vals),
        "within_envelope": all(r <= e for r, e in zip(r_vals, env_vals)),
    }
    return StudyReport(
        "stability",
        {"eps": eps, "variant": variant, "dt": params.dt,
         "t_final": params.t_final, "seed": seed},
        {"delta": deltas, "r": r_vals, "k": k_vals, "envelope": env_vals},
        # a delta below the start's precision leaves R = 0, which has no ratio
        {"max_over_min": max(r_vals) / min(r_vals) if min(r_vals)
         else float("nan")}, flags,
        {"stability_envelope_constant": c_env})


def moment_study(grid: Grid | None = None, n_samples: int = 20000,
                 seed: int = 0, *, window: tuple[float, float] = (-32.0, 32.0),
                 intensity: float = 1.0) -> StudyReport:
    """Sampled weight statistics at the origin plus weighted-mass ratios.

    Estimates E[N_0^2] over unit-intensity samples and checks that the
    estimate moves by under 2% between n/2 and n samples and lands in the
    frozen reference band.  For each of three Gaussian fields on ``grid``
    (None gives Grid(32, 4096)) it checks the first and second moments of
    ||f||_{L^2_mu}^2 against the frozen ratio bounds:
    E X <= c ||f||_{L^2}^2 and E X^2 <= c_2 ||f||_{L^2}^4.

    The samples come in the sweep's chunks: each chunk's N_k^2 at the
    grid's integers comes from one ``weight_profile(batch)``, whose rows are
    bit for bit the profiles of the chunk's samples, and each chunk's
    ||f||_{L^2_mu}^2 from one stacked product that pairs every row with the
    hat moments by the matrix-vector product a single sample would use, so
    every draw and every value is that of the sample on its own.
    """
    if n_samples < 1000:
        raise ConfigError("need at least 1000 samples for stable statistics")
    if grid is None:
        grid = Grid(32.0, 4096)
    profiles = {
        "gauss_wide": gaussian_field(grid, sigma=1.0),
        "gauss_shifted": gaussian_field(grid, sigma=0.5, center=3.0),
        "gauss_broad": gaussian_field(grid, sigma=2.0, center=-5.0),
    }
    checked_size("sample table entries (samples x profiles)",
                 n_samples * len(profiles), MAX_ENTRIES)
    # N_k^2 is read at the hat moments' 2 ceil(L) + 1 integers, so the grid
    # alone sizes the chunk weight table (a float product overflows to inf)
    checked_size("weight table entries (chunk samples x integers)",
                 SWEEP_CHUNK * (2.0 * float(np.ceil(grid.half_length)) + 1),
                 MAX_ENTRIES)
    names = list(profiles)
    denoms = np.array([l2_norm(f) ** 2 for f in profiles.values()])
    # ||f||_{L^2_mu}^2 = sum_k N_k^2 h_k(f): the hat moments of each field
    # are computed once and paired with every sampled profile
    pairs = [hat_moments(f) for f in profiles.values()]
    ks = pairs[0][0]
    origin = int(np.flatnonzero(ks == 0)[0])  # ks spans [-L, L], so holds 0
    moments = np.array([h for _, h in pairs])
    # the sweep reads only the norms and the hat moments, so the fields and
    # their cached spectra are freed before its first chunk
    del profiles, pairs

    n0sq = np.empty(n_samples)
    wsq = np.zeros((n_samples, len(names)))
    i = 0
    for batch in poisson_sweep(window, intensity, seed, n_samples):
        nk2 = weight_profile(batch).nk_squared(ks)
        rows = slice(i, i + len(batch))
        n0sq[rows] = nk2[:, origin]
        # one matrix-vector product per sample, stacked: the same BLAS call
        # as moments @ row, where one matrix product nk2 @ moments.T would
        # round differently
        np.matmul(moments, nk2[:, :, None], out=wsq[rows, :, None])
        i = rows.stop

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


def _gap_ladder(checks: Sequence[str], gaps: Sequence[float]) -> list[tuple]:
    """Report rows asserting that each gap falls below the one before it."""
    return [(check, gap, 0.0, prev, gap < prev)
            for check, gap, prev in zip(checks, gaps, [np.inf, *gaps[:-1]])]


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
    checked_size("sample table entries (samples x heights)",
                 n_samples * len(heights), MAX_ENTRIES)
    phis = [SmoothedIndicator(0.0, 1.0, height=h) for h in heights]

    counts = np.concatenate([np.diff(batch.offsets) for batch in poisson_sweep(
        (0.0, 10.0), 1.0, _rng.substream_seed(seed, 0), n_samples)]
    ).astype(float)
    c_mean = float(np.mean(counts))
    se_mean = float(np.std(counts, ddof=1) / np.sqrt(n_samples))
    m2 = float(np.var(counts, ddof=1))
    m4 = float(np.mean((counts - c_mean)**4))
    se_var = float(np.sqrt(max(m4 - (n_samples - 3) / (n_samples - 1) * m2**2,
                               0.0) / n_samples))

    emp, se = empirical_laplace_functional(poisson_sweep(
        (-1.0, 2.0), 1.0, _rng.substream_seed(seed, 1), n_samples), phis)
    closed = np.array([poisson_laplace_functional(phi) for phi in phis])

    target = closed[1]
    bern_ps = (0.25, 0.0625, 0.015625)
    fixed_ws = (10, 100, 1000)
    # rows (check, observed, expected, tolerance, ok), grouped by their flag
    blocks = {
        "count_mean": [("count_mean", c_mean, 10.0, 4 * se_mean,
                        abs(c_mean - 10) <= 4 * se_mean)],
        "count_variance": [("count_var", m2, 10.0, 4 * se_var,
                            abs(m2 - 10) <= 4 * se_var)],
        "lf_within_3se": [(f"lf_height_{h:g}", float(e), float(c), 3 * float(s),
                           abs(e - c) <= 3 * s)
                          for h, e, s, c in zip(heights, emp, se, closed)],
        "bernoulli_ladder_decreasing": _gap_ladder(
            [f"bernoulli_gap_p_{p:g}" for p in bern_ps],
            [abs(bernoulli_laplace_functional(phis[1], p, p) - target)
             for p in bern_ps]),
        "fixed_count_ladder_decreasing": _gap_ladder(
            [f"fixed_count_gap_n_{w}" for w in fixed_ws],
            [abs(fixed_count_laplace_functional(phis[1], (-1.0, w - 1.0), w)
                 - target) for w in fixed_ws]),
    }
    rows = [row for block in blocks.values() for row in block]
    flags = {name: all(row[4] for row in block)
             for name, block in blocks.items()}
    return StudyReport(
        "laplace",
        {"seed": seed, "n_samples": n_samples, "heights": list(heights)},
        {"check": [r[0] for r in rows],
         "observed": [r[1] for r in rows],
         "expected": [r[2] for r in rows],
         "tolerance": [r[3] for r in rows],
         "ok": [r[4] for r in rows]},
        {}, flags)
