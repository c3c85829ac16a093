import json
import math
from collections import Counter
import tracemalloc

import numpy as np
import pytest

from conftest import drain, record_steps
from sprinkled_nls.constants import CALIBRATION
from sprinkled_nls.errors import MAX_STEPS, BlowUpError, ConfigError
from sprinkled_nls.field import (Grid, WaveField, gaussian_field, hat_moments,
                                 hat_pairing, random_field, sobolev_norm)
from sprinkled_nls.measure import weight_profile, weighted_l2_norm
from sprinkled_nls.mollify import truncated_potential
from sprinkled_nls.point_process import AtomicMeasure, sample_poisson
from sprinkled_nls.rng import generator, substream_seed
from sprinkled_nls.solver import SolverParams
from sprinkled_nls import field, solver, studies
from sprinkled_nls.studies import (StudyReport, eps_convergence_study,
                                   laplace_study, moment_study,
                                   save_report_csv, save_report_json,
                                   stability_study)


def _toy_report():
    return StudyReport("toy", {"p": 1},
                       {"x": [1.0, 2.0], "ok": [True, False], "n": [3, 4]},
                       {"slope": 1.5}, {"good": True, "bad": False})


def test_report_rejects_ragged_columns():
    with pytest.raises(ValueError):
        StudyReport("bad", {}, {"x": [1.0], "y": [1.0, 2.0]})


def test_report_passed_requires_all_flags():
    rep = _toy_report()
    assert not rep.passed()
    rep.flags["bad"] = True
    assert rep.passed()


def test_report_csv_cell_formats(tmp_path):
    path = tmp_path / "r.csv"
    save_report_csv(_toy_report(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,ok,n"
    assert lines[1] == "1,1,3"
    assert lines[2] == "2,0,4"


def test_report_json_round_trip(tmp_path):
    path = tmp_path / "r.json"
    save_report_json(_toy_report(), path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"name", "params", "columns", "rates", "flags",
                        "constants", "passed"}
    assert doc["columns"]["ok"] == [True, False]
    assert doc["passed"] is False


def test_eps_ladder_validation(grid):
    psi0 = gaussian_field(grid)
    mu = AtomicMeasure((-16.0, 16.0), np.array([0.0]), np.array([1.0]))
    params = SolverParams(dt=1e-3, t_final=0.05, record_every=10)
    with pytest.raises(ValueError):
        eps_convergence_study(psi0, mu, (0.4, 0.2), params)
    with pytest.raises(ValueError):
        eps_convergence_study(psi0, mu, (0.4, 0.3, 0.15), params)
    # the variant rule is truncated_potential's, met after the width checks,
    # so the ladder is one this grid resolves
    with pytest.raises(ConfigError, match="variant"):
        eps_convergence_study(psi0, mu, (1.0, 0.5, 0.25), params,
                              variant="nope")
    with pytest.raises(ConfigError, match="variant"):
        stability_study(psi0, mu, 0.2, (1e-2,), params, 0, variant="nope")
    # every solve width is checked before the first solve
    with pytest.raises(ConfigError):
        eps_convergence_study(psi0, mu, (0.8, 0.4, float("nan")), params)


def test_eps_ladder_halves_exactly(unit_atom, monkeypatch):
    """A rung off exact halving by 1e-12 is refused before any width runs,
    on a grid that resolves every width such a ladder would solve."""
    def no_run(*args, **kwargs):
        raise AssertionError("a width ran on a ladder that does not halve")

    monkeypatch.setattr(studies, "evolve_many", no_run)
    with pytest.raises(ConfigError, match="exactly half"):
        eps_convergence_study(gaussian_field(Grid(8.0, 1024)), unit_atom,
                              (0.4, 0.2 + 1e-12, 0.1),
                              SolverParams(dt=1e-3, t_final=0.05,
                                           record_every=10))


def test_eps_study_steps_each_width_once_holding_no_records(monkeypatch):
    """A ladder of m rungs makes exactly m + 1 runs, each drained once to
    its last record, and the study holds no run's records: its traced peak
    stays below one run's (R, N) record array."""
    runs = []

    def tracked(starts, potential, params):
        steps = []
        runs.append((params.dt, record_steps(params), steps))
        for step, block in solver.evolve_many(starts, potential, params):
            steps.append(step)
            yield step, block

    monkeypatch.setattr(studies, "evolve_many", tracked)
    g = Grid(8.0, 1024)
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.3]), np.array([1.0]))
    params = SolverParams(dt=1e-3, t_final=0.1, record_every=1)
    one_run = len(record_steps(params)) * g.n * 16  # 1.7 MB of records
    tracemalloc.start()
    try:
        rep = eps_convergence_study(gaussian_field(g), mu, (0.4, 0.2, 0.1),
                                    params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(runs) == len({dt for dt, _, _ in runs}) == 4
    assert all(steps == expected for _, expected, steps in runs)
    assert peak < one_run
    assert rep.passed()


def test_eps_study_checks_record_0_before_stepping(no_step):
    """A start with a NaN has a NaN record-0 distance, so the study stops at
    step 0 without stepping any width."""
    g = Grid(8.0, 1024)
    values = gaussian_field(g).values.copy()
    values[100] = np.nan
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.3]), np.array([1.0]))
    with pytest.raises(BlowUpError,
                       match=r"recorded H\^1 distance at step 0 ") as info:
        eps_convergence_study(WaveField(g, values), mu, (0.4, 0.2, 0.1),
                              SolverParams(dt=1e-3, t_final=0.05,
                                           record_every=10))
    assert info.value.step == 0


def test_eps_step_ceiling_checked_before_any_run(grid, unit_atom,
                                                 monkeypatch):
    """Every width's step count is checked before the first width runs: here
    the coarse widths take 5e5 to 4e6 steps and the finest 1.1e7."""
    def no_run(*args, **kwargs):
        raise AssertionError("a width ran before every width was checked")

    monkeypatch.setattr(studies, "evolve_many", no_run)
    with pytest.raises(ConfigError, match=f"ceiling \\[0, {MAX_STEPS}\\]"):
        eps_convergence_study(gaussian_field(grid), unit_atom,
                              (1.0, 0.5, 0.25),
                              SolverParams(dt=1e-3, t_final=500.0,
                                           record_every=10))


def test_eps_convergence_smoke():
    g = Grid(8.0, 1024)
    psi0 = gaussian_field(g)
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.3]), np.array([1.0]))
    rep = eps_convergence_study(
        psi0, mu, (0.4, 0.2, 0.1),
        SolverParams(dt=1e-3, t_final=0.05, record_every=10))
    assert rep.passed()
    d = rep.columns["d_sum"]
    assert d[2] < d[1] < d[0]
    assert math.isnan(rep.columns["ratio"][0])
    assert rep.columns["ratio"][1] == pytest.approx(d[1] / d[0])
    assert rep.rates["sum"] > 0.3
    # finer widths take proportionally smaller steps
    assert rep.params["dt_finest"] < rep.params["dt_coarsest"] / 8


def test_eps_convergence_empty_measure_is_roundoff():
    """No atoms: both runs are free flows, differing only in step roundoff."""
    g = Grid(8.0, 1024)
    psi0 = gaussian_field(g)
    empty = AtomicMeasure((-8.0, 8.0), np.array([]), np.array([]))
    rep = eps_convergence_study(
        psi0, empty, (0.4, 0.2, 0.1),
        SolverParams(dt=1e-3, t_final=0.05, record_every=10))
    assert max(rep.columns["d_sum"]) < 1e-10


def test_eps_record_grid_validation(fine_grid):
    psi0 = gaussian_field(fine_grid)
    mu = AtomicMeasure((-32.0, 32.0), np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        eps_convergence_study(psi0, mu, (0.4, 0.2, 0.1),
                              SolverParams(dt=1e-3, t_final=0.0543,
                                           record_every=10))


def test_stability_delta_validation(grid, unit_atom):
    psi0 = gaussian_field(grid)
    params = SolverParams(dt=1e-2, t_final=0.1, record_every=5)
    with pytest.raises(ValueError):
        stability_study(psi0, unit_atom, 0.2, (1e-2, -1e-3), params, 0)
    with pytest.raises(ValueError):
        stability_study(psi0, unit_atom, 0.2, (1e-3, 1e-2), params, 0)
    with pytest.raises(ValueError):
        stability_study(psi0, unit_atom, 0.2, (), params, 0)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            stability_study(psi0, unit_atom, 0.2, (bad,), params, 0)


def test_stability_smoke_time_symmetric():
    grid = Grid(32.0, 2048)
    psi0 = gaussian_field(grid)
    single = sample_poisson((-0.5, 0.5), 1.0, substream_seed(0xCA1B + 6, 1))
    assert single.count == 1
    rep = stability_study(
        psi0, single, 0.1, (1e-2, 1e-3, 1e-4),
        SolverParams(dt=1e-3, t_final=0.5, record_every=50,
                     record_quartic=False), 0xCA1B + 7)
    assert rep.passed()
    assert rep.rates["max_over_min"] < 1.01
    assert rep.constants["stability_envelope_constant"] == \
        CALIBRATION["stability_envelope_constant"]


STABILITY_PARAMS = SolverParams(dt=1e-2, t_final=0.1, record_every=5)


def test_real_start_and_its_conjugate_step_to_the_same_rows(grid, unit_atom):
    """Why the stability study steps a real start's base run once: the
    stack steps a real start and its conjugate to equal rows, bit for bit."""
    psi0 = gaussian_field(grid)
    pot = truncated_potential(unit_atom, grid, 0.2, "fully_truncated")
    rows = drain([psi0, WaveField(grid, np.conj(psi0.values))], pot,
                 STABILITY_PARAMS)
    np.testing.assert_array_equal(rows[0], rows[1])


@pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
def test_stability_steps_each_distinct_start_once(grid, unit_atom,
                                                  monkeypatch, is_complex):
    """With two deltas there are n = 3 starts per time direction: a real
    psi0 hands 2n - 1 starts to ``evolve_many``, a complex one all 2n."""
    handed = []

    def counted(starts, potential, params):
        handed.append(len(starts))
        return solver.evolve_many(starts, potential, params)

    monkeypatch.setattr(studies, "evolve_many", counted)
    psi0 = gaussian_field(grid)
    if is_complex:
        psi0 = WaveField(grid, psi0.values * np.exp(1j * grid.x))
    stability_study(psi0, unit_atom, 0.2, (1e-2, 1e-3), STABILITY_PARAMS, 0)
    assert handed == [6 if is_complex else 5]


def test_stability_real_start_matches_the_full_stack(grid, unit_atom):
    """For a real psi0, r and k equal, bit for bit, the study's formulas
    applied to the full 2n-row stack, which steps the backward base run as
    a row of its own."""
    psi0 = gaussian_field(grid)
    deltas, seed = (1e-2, 1e-3), 3
    rep = stability_study(psi0, unit_atom, 0.2, deltas, STABILITY_PARAMS,
                          seed)

    g = random_field(grid, generator(seed))
    starts = [psi0.values] + [psi0.values + d * g.values for d in deltas]
    runs = drain(
        [WaveField(grid, v) for v in starts + [np.conj(v) for v in starts]],
        truncated_potential(unit_atom, grid, 0.2, "fully_truncated"),
        STABILITY_PARAMS)
    l2mu = hat_pairing(grid, weight_profile(unit_atom).nk_squared)
    n = len(starts)
    sizes = np.array([[sobolev_norm(WaveField(grid, s), 1.0)
                       * weighted_l2_norm(WaveField(grid, s), l2mu)
                       for s in states] for states in runs])
    r = [float(np.max([sobolev_norm(WaveField(grid, d), -1.0)
                       for base in (0, n)
                       for d in runs[base] - runs[base + idx]])) / delta
         for idx, delta in enumerate(deltas, start=1)]
    k = [float(np.max(sizes[[0, n]] + sizes[[idx, n + idx]]))
         for idx in range(1, n)]
    assert rep.columns["r"] == r
    assert rep.columns["k"] == k


def test_studies_compute_only_what_they_report(monkeypatch):
    """The eps and stability studies report distances and H^1 x L^2_mu
    sizes only; neither reaches the solver's other per-record
    diagnostics."""
    def unused(*args, **kwargs):
        raise AssertionError("a study computed a diagnostic it never reports")

    for name in ("mass", "energy", "sup_norm", "quartic_measure_integral"):
        monkeypatch.setattr(solver, name, unused)
    g = Grid(8.0, 1024)
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.3]), np.array([1.0]))
    params = SolverParams(dt=1e-3, t_final=0.02, record_every=10)
    eps_convergence_study(gaussian_field(g), mu, (0.4, 0.2, 0.1), params)
    stability_study(gaussian_field(g), mu, 0.2, (1e-2, 1e-3), params, 0)


@pytest.mark.parametrize("record_every", [1, 5], ids=["21_records",
                                                     "5_records"])
def test_runs_build_their_diagnostics_plan_once(monkeypatch, record_every):
    """What a record's diagnostics read of the grid and the measure is
    built once per run, whatever its record count: the weighted norm's
    functional once per evolve, stability and eps call, the atom tables
    once per evolve, and trig-sum tables once per builder."""
    built = Counter()

    def counted(module, name):
        def wrapper(*args, _fn=getattr(module, name), **kwargs):
            built[name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (solver, studies):
        counted(module, "hat_pairing")
    counted(solver, "domain_atoms")
    counted(field, "_trig_tables")
    g = Grid(8.0, 1024)
    mu = AtomicMeasure((-8.0, 8.0), np.array([-1.0, 0.3]),
                       np.array([1.0, 2.0]))
    params = SolverParams(dt=1e-3, t_final=0.02, record_every=record_every)
    psi0 = gaussian_field(g)
    for run, plan in (
            (lambda: solver.evolve_regularized(psi0, mu, 0.2, params),
             {"hat_pairing": 1, "domain_atoms": 1, "_trig_tables": 2}),
            (lambda: stability_study(psi0, mu, 0.2, (1e-2, 1e-3), params, 0),
             {"hat_pairing": 1, "_trig_tables": 1}),
            (lambda: eps_convergence_study(psi0, mu, (0.4, 0.2, 0.1),
                                           params),
             {"hat_pairing": 1, "_trig_tables": 1})):
        built.clear()
        run()
        assert built == plan


# name -> (sigma, center) of the moment study's three Gaussian fields
MOMENT_FIELDS = {"gauss_wide": (1.0, 0.0), "gauss_shifted": (0.5, 3.0),
                 "gauss_broad": (2.0, -5.0)}


def _moment_fields(grid):
    return [gaussian_field(grid, sigma=s, center=c)
            for s, c in MOMENT_FIELDS.values()]


def test_moment_validation():
    with pytest.raises(ValueError):
        moment_study(Grid(32.0, 1024), 999, 0)


def test_moment_weight_table_passes_the_size_rule(monkeypatch):
    """A sweep chunk's N_k^2 table, one row per sample and one column per
    hat-moment integer, is sized from the grid, 64 x (2 ceil(L) + 1)
    entries, and refused before the hat moments are computed or the first
    sample is drawn when it would pass the size ceiling."""
    def unused(*args, **kwargs):
        raise AssertionError("computed before the size rule")

    monkeypatch.setattr(studies, "hat_moments", unused)
    monkeypatch.setattr(studies, "poisson_sweep", unused)
    with pytest.raises(ConfigError, match="weight table entries"):
        moment_study(Grid(2e6, 4), 1000, 0)


def test_moment_default_profiles_pass():
    rep = moment_study(None, 1000, 0)
    assert rep.passed()
    assert rep.columns["profile"] == list(MOMENT_FIELDS)
    assert (rep.params["grid_n"], rep.params["half_length"]) == (4096, 32.0)
    band = CALIBRATION["expected_n0_squared_band"]
    assert band[0] <= rep.rates["n0_squared_full"] <= band[1]
    assert max(rep.columns["ratio"]) <= CALIBRATION["moment_ratio_bound"]
    assert max(rep.columns["ratio_p2"]) <= \
        CALIBRATION["moment_ratio_bound_p2"]


def test_moment_window_insensitive():
    """The ratios only see atoms near each field; the window just needs to
    cover the fields."""
    grid = Grid(32.0, 1024)
    a = moment_study(grid, 2000, 5, window=(-20.0, 20.0))
    b = moment_study(grid, 2000, 5, window=(-32.0, 32.0))
    for ra, rb in zip(a.columns["ratio"], b.columns["ratio"]):
        assert abs(ra - rb) < 0.05 * max(ra, rb)


def test_moment_pairing_equals_weighted_norm():
    """The study pairs each field's hat moments with every sampled profile;
    that is the squared weighted norm of the field against each sample.  Its
    N_0^2 comes from the same paired row."""
    grid = Grid(16.0, 512)
    window, seed, n = (-16.0, 16.0), 3, 1000
    rep = moment_study(grid, n, seed, window=window)
    profiles = [weight_profile(sample_poisson(window, 1.0,
                                              substream_seed(seed, i)))
                for i in range(n)]
    pairings = [hat_pairing(grid, p.nk_squared) for p in profiles]
    for f, got in zip(_moment_fields(grid),
                      rep.columns["mean_weighted_squared"], strict=True):
        direct = np.mean([weighted_l2_norm(f, p) ** 2 for p in pairings])
        assert got == pytest.approx(direct, rel=1e-14)
    assert rep.rates["n0_squared_full"] == pytest.approx(
        np.mean([p.nk_squared(0) for p in profiles]), rel=1e-14)


@pytest.mark.parametrize("window", [(-40.0, 40.0), (-5.0, 5.0)],
                         ids=["wider_than_grid", "narrower_than_grid"])
def test_moment_chunks_equal_per_sample_profiles(window):
    """1001 samples make fifteen full sweep chunks of 64 and a ragged one of
    41.  Each chunk's table spans the window and is read at the grid's
    integers through the edge rule, so the study reads exactly the N_k^2 of
    each sample's own profile, paired in the same order and arithmetic."""
    grid = Grid(32.0, 4096)
    seed, n = 4, 1001
    rep = moment_study(grid, n, seed, window=window)
    pairs = [hat_moments(f) for f in _moment_fields(grid)]
    ks = pairs[0][0]
    moments = np.array([h for _, h in pairs])
    n0sq, wsq = np.empty(n), np.zeros((n, len(pairs)))
    for i in range(n):
        mu = sample_poisson(window, 1.0, substream_seed(seed, i))
        nk2 = weight_profile(mu).nk_squared(ks)
        n0sq[i] = nk2[ks == 0][0]
        wsq[i] = moments @ nk2
    assert rep.rates["n0_squared_full"] == float(np.mean(n0sq))
    assert rep.columns["mean_weighted_squared"] == \
        np.mean(wsq, axis=0).tolist()


def test_moment_study_builds_one_profile_per_chunk(monkeypatch):
    """The moment study builds its weights through studies.weight_profile,
    one call per sweep chunk, so a tracer that wraps that name sees every
    table the study builds."""
    calls = []

    def counted(batch):
        calls.append(len(batch))
        return weight_profile(batch)

    monkeypatch.setattr(studies, "weight_profile", counted)
    moment_study(Grid(16.0, 512), 1000, 2, window=(-16.0, 16.0))
    full, rest = divmod(1000, studies.SWEEP_CHUNK)
    assert calls == [studies.SWEEP_CHUNK] * full + [rest] * (rest > 0)


def test_moment_study_peak_memory():
    """One acceptance-size moment study holds its sample table, one chunk's
    weight profiles and one seed block at a time: deriving every sample's
    seed up front would about double its traced peak."""
    tracemalloc.start()
    try:
        moment_study(None, 10000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20


def test_laplace_study_smoke():
    rep = laplace_study(3, n_samples=2000)
    assert rep.passed()
    assert len(rep.columns["check"]) == 11
    assert rep.columns["check"][0] == "count_mean"
    assert all(rep.columns["ok"])


def test_laplace_study_deterministic():
    a = laplace_study(3, n_samples=1000)
    b = laplace_study(3, n_samples=1000)
    assert a.columns == b.columns


def test_laplace_validation():
    with pytest.raises(ValueError):
        laplace_study(0, n_samples=999)
