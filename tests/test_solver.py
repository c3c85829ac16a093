import numpy as np
import pytest

from sprinkled_nls import rng
from sprinkled_nls.errors import BlowUpError, OracleInstabilityError
from sprinkled_nls.field import (Grid, GriddedDensity, WaveField,
                                 free_propagator, gaussian_field, l2_norm,
                                 load_field_bin, random_field)
from sprinkled_nls.mollify import truncated_potential
from sprinkled_nls.point_process import AtomicMeasure, sample_poisson
from sprinkled_nls.solver import (SolverParams, evolve, evolve_many,
                                  evolve_regularized, oracle_evolve,
                                  save_snapshots, save_trajectory_csv)


def zero_potential(grid):
    return GriddedDensity(grid, np.zeros(grid.n))


def no_atoms(grid):
    return AtomicMeasure((-grid.half_length, grid.half_length), np.empty(0),
                         np.empty(0))


def test_solver_params_validation():
    with pytest.raises(ValueError):
        SolverParams(dt=0.2, t_final=1.0)
    with pytest.raises(ValueError):
        SolverParams(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        SolverParams(dt=1e-2, t_final=1e-3)
    with pytest.raises(ValueError):
        SolverParams(dt=1e-2, t_final=1.0, record_every=0)
    p = SolverParams(dt=1e-2, t_final=1.0)
    assert p.n_steps == 100


def test_zero_potential_matches_free_propagator(grid):
    """With V = 0 the split flow is the exact free flow, step by step."""
    psi0 = random_field(grid, rng.generator(1))
    params = SolverParams(dt=1e-2, t_final=0.1, record_every=10)
    traj = evolve(psi0, zero_potential(grid), params, measure=no_atoms(grid))
    exact = free_propagator(psi0, 0.1)
    err = l2_norm(WaveField(grid, traj.states[-1].values - exact.values))
    assert err < 1e-13


def test_mass_conserved_to_roundoff(grid):
    mu = AtomicMeasure((-8.0, 8.0), np.array([-2.0, 0.5, 3.0]),
                       np.array([1.0, 2.0, 1.0]))
    params = SolverParams(dt=1e-3, t_final=0.1)
    traj = evolve_regularized(gaussian_field(grid), mu, 0.2, params)
    m = traj.diagnostics["mass"]
    assert np.max(np.abs(m - m[0])) / m[0] < 1e-12


def test_time_reversal_via_conjugation(grid):
    """Evolving the conjugate of the final state returns to the start."""
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0]), np.array([1.0]))
    params = SolverParams(dt=1e-3, t_final=0.05, record_every=50)
    fwd = evolve_regularized(gaussian_field(grid), mu, 0.2, params)
    back = evolve_regularized(
        WaveField(grid, np.conj(fwd.states[-1].values)), mu, 0.2, params)
    err = l2_norm(WaveField(grid, np.conj(back.states[-1].values)
                            - gaussian_field(grid).values))
    assert err < 1e-11


def test_splitting_is_second_order(grid):
    """Richardson order estimate from dt, dt/2, dt/4 lands near 2."""
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0]), np.array([1.0]))
    t_final = 0.1
    finals = []
    for dt in (2e-3, 1e-3, 5e-4):
        params = SolverParams(dt=dt, t_final=t_final, record_every=1000)
        traj = evolve_regularized(gaussian_field(grid), mu, 0.4, params,
                                  "mollified_only")
        finals.append(traj.states[-1].values)
    e1 = l2_norm(WaveField(grid, finals[0] - finals[1]))
    e2 = l2_norm(WaveField(grid, finals[1] - finals[2]))
    order = np.log2(e1 / e2)
    assert 1.8 <= order <= 2.2


def test_record_schedule(grid):
    params = SolverParams(dt=1e-2, t_final=0.1, record_every=3)
    traj = evolve(gaussian_field(grid), zero_potential(grid), params,
                  measure=no_atoms(grid))
    # records at steps 0, 3, 6, 9 and the final step 10
    np.testing.assert_allclose(traj.times, [0.0, 0.03, 0.06, 0.09, 0.1],
                               rtol=0, atol=1e-15)
    assert len(traj.states) == len(traj.times)
    for c in ("mass", "energy", "h1", "l2mu", "sup", "quartic"):
        assert len(traj.diagnostics[c]) == len(traj.times)


def test_quartic_recording_toggle(grid):
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0]), np.array([1.0]))
    on = evolve_regularized(gaussian_field(grid), mu, 0.2,
                            SolverParams(dt=1e-2, t_final=0.02))
    off = evolve_regularized(gaussian_field(grid), mu, 0.2,
                             SolverParams(dt=1e-2, t_final=0.02,
                                          record_quartic=False))
    assert np.all(np.isfinite(on.diagnostics["quartic"]))
    assert np.all(np.isnan(off.diagnostics["quartic"]))


def test_blow_up_detected(grid):
    bad = WaveField(grid, np.full(grid.n, np.nan, dtype=np.complex128))
    with pytest.raises(BlowUpError) as info:
        evolve(bad, zero_potential(grid), SolverParams(dt=1e-2, t_final=0.1),
               measure=no_atoms(grid))
    assert info.value.step == 1


def test_stack_rows_equal_single_runs_bit_for_bit():
    """Each row of a stack is the same start run alone, to the last bit.

    About 96 % of the grid is support, so the gathered (8, S) stack is over
    256 KiB: there numpy would elide the temporary of psi * phase and swap
    the operands of the complex product, which moves rows by ulps.
    """
    grid = Grid(16.0, 4096)
    mu = sample_poisson((-16.0, 16.0), 3.0, rng.substream_seed(11, 0))
    pot = truncated_potential(mu, grid, 0.5, "mollified_only")
    assert np.count_nonzero(pot.values) > 0.9 * grid.n
    starts = [random_field(grid, rng.generator(k)) for k in range(8)]
    params = SolverParams(dt=1e-3, t_final=0.01, record_every=5)
    stacked = evolve_many(starts, pot, params, measure=mu)
    assert len(stacked) == len(starts)
    for psi0, row in zip(starts, stacked):
        alone = evolve(psi0, pot, params, measure=mu)
        np.testing.assert_array_equal(row.times, alone.times)
        assert len(row.states) == len(alone.states)
        for a, b in zip(row.states, alone.states):
            np.testing.assert_array_equal(a.values, b.values)
        assert row.diagnostics.keys() == alone.diagnostics.keys()
        for key, values in alone.diagnostics.items():
            np.testing.assert_array_equal(row.diagnostics[key], values)


def test_evolve_many_input_checks(grid):
    params = SolverParams(dt=1e-2, t_final=0.02)
    with pytest.raises(ValueError, match="at least one"):
        evolve_many([], zero_potential(grid), params, measure=no_atoms(grid))
    other = gaussian_field(Grid(16.0, 256))
    with pytest.raises(ValueError, match="must share a grid"):
        evolve_many([gaussian_field(grid), other], zero_potential(grid),
                    params, measure=no_atoms(grid))


def test_blow_up_in_one_row_stops_the_stack(grid):
    bad = WaveField(grid, np.full(grid.n, np.nan, dtype=np.complex128))
    with pytest.raises(BlowUpError) as info:
        evolve_many([gaussian_field(grid), bad, gaussian_field(grid)],
                    zero_potential(grid), SolverParams(dt=1e-2, t_final=0.1),
                    measure=no_atoms(grid))
    assert info.value.step == 1


def test_oracle_agrees_with_split_solver():
    """Two unrelated integrators land on the same trajectory.

    The oracle default step targets stability; accuracy at the 1e-6 level
    needs dx^2/64, where the two methods agree to ~1e-8.
    """
    grid = Grid(16.0, 256)
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0]), np.array([1.0]))
    pot = truncated_potential(mu, grid, 0.4, "mollified_only")
    psi0 = gaussian_field(grid)
    params = SolverParams(dt=2e-5, t_final=0.05, record_every=2500)
    split = evolve(psi0, pot, params, measure=mu)
    ref = oracle_evolve(psi0, pot, 0.05, dt=grid.dx**2 / 64.0)
    err = l2_norm(WaveField(grid, split.states[-1].values - ref.values))
    assert err < 1e-6


def test_oracle_detects_unstable_step():
    grid = Grid(16.0, 256)
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0]), np.array([1.0]))
    pot = truncated_potential(mu, grid, 0.4, "mollified_only")
    psi0 = gaussian_field(grid)
    with pytest.raises(OracleInstabilityError):
        oracle_evolve(psi0, pot, 0.05, dt=0.5 * grid.dx**2)


def test_trajectory_csv_layout(tmp_path, grid):
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0]), np.array([1.0]))
    traj = evolve_regularized(gaussian_field(grid), mu, 0.2,
                              SolverParams(dt=1e-2, t_final=0.02))
    path = tmp_path / "diag.csv"
    save_trajectory_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,mass,energy,h1,l2mu,sup,quartic"
    assert len(lines) == len(traj.times) + 1


def test_snapshots_round_trip(tmp_path, grid):
    traj = evolve(gaussian_field(grid), zero_potential(grid),
                  SolverParams(dt=1e-2, t_final=0.03, record_every=1),
                  measure=no_atoms(grid))
    names = save_snapshots(traj, tmp_path / "snaps")
    assert names == [f"state_{i:06d}.bin" for i in range(len(traj.states))]
    mid = load_field_bin(tmp_path / "snaps" / names[1])
    np.testing.assert_array_equal(mid.values, traj.states[1].values)
