import json
import math

import numpy as np
import pytest

from sprinkled_nls.constants import CALIBRATION
from sprinkled_nls.field import Grid, gaussian_field
from sprinkled_nls.measure import weight_profile, weighted_l2_norm
from sprinkled_nls.point_process import AtomicMeasure, sample_poisson
from sprinkled_nls.rng import substream_seed
from sprinkled_nls.solver import SolverParams
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
    with pytest.raises(ValueError):
        eps_convergence_study(psi0, mu, (0.4, 0.2, 0.1), params,
                              variant="nope")


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


def test_stability_smoke_time_symmetric():
    grid = Grid(32.0, 2048)
    psi0 = gaussian_field(grid)
    single = sample_poisson((-0.5, 0.5), 1.0, substream_seed(0xCA1B + 6, 1))
    assert single.count == 1
    rep = stability_study(
        psi0, single, 0.1, (1e-2, 1e-3, 1e-4, 0.0),
        SolverParams(dt=1e-3, t_final=0.5, record_every=50,
                     record_quartic=False), 0xCA1B + 7)
    assert rep.passed()
    assert rep.columns["exact_match"] == [False, False, False, True]
    assert math.isnan(rep.columns["r"][-1])
    assert rep.rates["max_over_min"] < 1.01
    assert rep.constants["stability_envelope_constant"] == \
        CALIBRATION["stability_envelope_constant"]


def test_stability_zero_delta_row_is_exact(grid, unit_atom):
    """The unperturbed start and its zero-delta copy share one stack; their
    rows stay independent and identical."""
    rep = stability_study(gaussian_field(grid), unit_atom, 0.2, (1e-2, 0.0),
                          SolverParams(dt=1e-2, t_final=0.1, record_every=5),
                          0)
    assert rep.flags["zero_deltas_exact"]
    assert rep.columns["exact_match"] == [False, True]


def test_moment_validation():
    f = gaussian_field(Grid(32.0, 1024))
    with pytest.raises(ValueError):
        moment_study({"f": f}, 999, 0)
    with pytest.raises(ValueError):
        moment_study({}, 1000, 0)
    other = gaussian_field(Grid(16.0, 1024))
    with pytest.raises(ValueError):
        moment_study({"f": f, "other": other}, 1000, 0)


def test_moment_default_profiles_pass():
    rep = moment_study(None, 1000, 0)
    assert rep.passed()
    assert len(rep.columns["profile"]) == 3
    band = CALIBRATION["expected_n0_squared_band"]
    assert band[0] <= rep.rates["n0_squared_full"] <= band[1]
    assert max(rep.columns["ratio"]) <= CALIBRATION["moment_ratio_bound"]
    assert max(rep.columns["ratio_p2"]) <= \
        CALIBRATION["moment_ratio_bound_p2"]


def test_moment_window_insensitive():
    """The origin statistic only sees atoms near 0; the window just needs to
    cover the field."""
    f = gaussian_field(Grid(32.0, 1024))
    a = moment_study({"f": f}, 2000, 5, window=(-20.0, 20.0))
    b = moment_study({"f": f}, 2000, 5, window=(-32.0, 32.0))
    ra, rb = a.columns["ratio"][0], b.columns["ratio"][0]
    assert abs(ra - rb) < 0.05 * max(ra, rb)


def test_moment_pairing_equals_weighted_norm():
    """The study pairs each field's hat moments with every sampled profile;
    that is the squared weighted norm of the field against each sample."""
    f = gaussian_field(Grid(16.0, 512), sigma=2.0, center=1.5)
    window, seed, n = (-16.0, 16.0), 3, 1000
    rep = moment_study({"f": f}, n, seed, window=window)
    direct = np.mean([weighted_l2_norm(f, weight_profile(
        sample_poisson(window, 1.0, substream_seed(seed, i)))) ** 2
        for i in range(n)])
    assert rep.columns["mean_weighted_squared"][0] == pytest.approx(
        direct, rel=1e-14)


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
