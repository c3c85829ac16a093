import tracemalloc

import numpy as np
import pytest

from conftest import drain, record_steps as schedule
from sprinkled_nls import rng, solver
from sprinkled_nls.diagnostics import (domain_atoms, energy, mass,
                                       quartic_measure_integral)
from sprinkled_nls.errors import (MAX_ENTRIES, BlowUpError, ConfigError,
                                  OracleInstabilityError)
from sprinkled_nls.field import (Grid, GriddedDensity, WaveField,
                                 free_propagator, gaussian_field, hat_pairing,
                                 l2_norm, load_field_bin, random_field,
                                 sobolev_norm, sup_norm)
from sprinkled_nls.measure import weight_profile, weighted_l2_norm
from sprinkled_nls.mollify import truncated_potential
from sprinkled_nls.point_process import AtomicMeasure, sample_poisson
from sprinkled_nls.solver import (MAX_STEPS, SolverParams, evolve, evolve_many,
                                  evolve_regularized, oracle_evolve,
                                  save_trajectory_csv, snapshot_name)


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
    with pytest.raises(ValueError):  # t_final / dt overflows to inf
        SolverParams(dt=1e-320, t_final=1.0)
    # a finite step count past the ceiling is refused before any stepping
    assert SolverParams(dt=1.0 / MAX_STEPS, t_final=1.0).n_steps == MAX_STEPS
    for dt in (1.0 / (MAX_STEPS + 1), 1e-300):
        with pytest.raises(ValueError, match=f"ceiling \\[0, {MAX_STEPS}\\]"):
            SolverParams(dt=dt, t_final=1.0)
    for t_final in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverParams(dt=1e-2, t_final=t_final)
    with pytest.raises(ValueError):
        SolverParams(dt=1e-2, t_final=1.0, record_every=0)
    p = SolverParams(dt=1e-2, t_final=1.0)
    assert p.n_steps == 100


def test_size_rule_runs_before_the_first_step(grid, monkeypatch):
    """A record array or a weight-profile table past the size ceiling is
    refused before any FFT runs."""
    psi0, potential = gaussian_field(grid), zero_potential(grid)

    def no_fft(*args, **kwargs):
        raise AssertionError("stepped before the size rule")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    with pytest.raises(ConfigError, match="record entries"):
        evolve(psi0, potential, SolverParams(dt=1e-6, t_final=0.3,
                                             record_every=1),
               measure=no_atoms(grid))
    huge = AtomicMeasure((-16.0, 1e15), np.empty(0), np.empty(0))
    with pytest.raises(ConfigError, match="interval table"):
        evolve(psi0, potential, SolverParams(dt=1e-2, t_final=0.1),
               measure=huge)


def test_refused_record_array_builds_nothing():
    """``evolve`` admits its record entries from its record count, so a
    refused run of 1e7 steps allocates no record schedule (152.7 MiB of step
    indices if it did) before the refusal."""
    grid = Grid(16.0, 512)
    params = SolverParams(dt=1e-7, t_final=1.0, record_every=1)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="record entries"):
            evolve(gaussian_field(grid), zero_potential(grid), params,
                   measure=no_atoms(grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_default_solve_holds_no_state_array():
    """A run at the default solve's size (71 atoms, 101 records of 4096
    points) keeps only its last record: its traced peak stays below 2 MiB,
    where a (101, 4096) complex state array alone takes 6.3 MiB."""
    grid = Grid(32.0, 4096)
    mu = sample_poisson((-32.0, 32.0), 1.0, rng.substream_seed(0, 0))
    assert mu.count == 71
    params = SolverParams(dt=1e-3, t_final=1.0)
    psi0 = gaussian_field(grid)
    tracemalloc.start()
    try:
        traj = evolve_regularized(psi0, mu, 0.2, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.diagnostics["t"]) == 101
    assert peak < 2 * 2**20


def test_snapshots_stream_as_records_arrive(tmp_path, grid, monkeypatch):
    """Snapshot i is on disk before the kernel is asked for record i + 1,
    and no later file is, and each file reads back as the kernel's record i
    bit for bit."""
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.5]), np.array([1.0]))
    pot = truncated_potential(mu, grid, 0.2, "fully_truncated")
    psi0 = gaussian_field(grid)
    params = SolverParams(dt=1e-2, t_final=0.1, record_every=3)
    on_disk = []

    def watched(starts, potential, params):
        for record in evolve_many(starts, potential, params):
            yield record
            on_disk.append(sorted(p.name for p in tmp_path.iterdir()))

    monkeypatch.setattr(solver, "evolve_many", watched)
    evolve(psi0, pot, params, measure=mu, snapshots=tmp_path)
    names = [snapshot_name(i) for i in range(len(schedule(params)))]
    assert on_disk == [names[:i + 1] for i in range(len(names))]
    records = drain([psi0], pot, params)[0]
    for name, record in zip(names, records, strict=True):
        np.testing.assert_array_equal(
            load_field_bin(tmp_path / name).values, record)


def test_zero_potential_matches_free_propagator(grid):
    """With V = 0 the split flow is the exact free flow, step by step."""
    psi0 = random_field(grid, rng.generator(1))
    params = SolverParams(dt=1e-2, t_final=0.1, record_every=10)
    traj = evolve(psi0, zero_potential(grid), params, measure=no_atoms(grid))
    exact = free_propagator(psi0, 0.1)
    err = l2_norm(WaveField(grid, traj.final.values - exact.values))
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
        WaveField(grid, np.conj(fwd.final.values)), mu, 0.2, params)
    err = l2_norm(WaveField(grid, np.conj(back.final.values)
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
        finals.append(traj.final.values)
    e1 = l2_norm(WaveField(grid, finals[0] - finals[1]))
    e2 = l2_norm(WaveField(grid, finals[1] - finals[2]))
    order = np.log2(e1 / e2)
    assert 1.8 <= order <= 2.2


def test_record_schedule(tmp_path, grid):
    params = SolverParams(dt=1e-2, t_final=0.1, record_every=3)
    traj = evolve(gaussian_field(grid), zero_potential(grid), params,
                  measure=no_atoms(grid), snapshots=tmp_path)
    # records at steps 0, 3, 6, 9 and the final step 10
    np.testing.assert_allclose(traj.diagnostics["t"],
                               [0.0, 0.03, 0.06, 0.09, 0.1],
                               rtol=0, atol=1e-15)
    assert [len(load_field_bin(p).values)
            for p in sorted(tmp_path.iterdir())] == [grid.n] * 5
    for c in ("mass", "energy", "h1", "l2mu", "sup", "quartic"):
        assert len(traj.diagnostics[c]) == 5


@pytest.mark.parametrize("n_steps, every, record_steps", [
    (10, 3, [0, 3, 6, 9, 10]),  # n_steps % record_every != 0
    (9, 3, [0, 3, 6, 9]),       # n_steps % record_every == 0
    (4, 1, [0, 1, 2, 3, 4]),
    (4, 20, [0, 4])])
def test_record_array_rows(tmp_path, grid, n_steps, every, record_steps):
    """A run's snapshots are exactly the recorded steps: each file is bit
    for bit the state of a run that records every step, so no record is
    left unwritten, and the last file and the read-only ``final`` are the
    final step."""
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.5]), np.array([1.0]))
    pot = truncated_potential(mu, grid, 0.2, "fully_truncated")
    psi0 = gaussian_field(grid)
    traj = evolve(psi0, pot, SolverParams(dt=1e-2, t_final=n_steps * 1e-2,
                                          record_every=every), measure=mu,
                  snapshots=tmp_path)
    every_step = drain([psi0], pot, SolverParams(dt=1e-2,
                                                 t_final=n_steps * 1e-2,
                                                 record_every=1))[0]
    states = np.array([load_field_bin(p).values
                       for p in sorted(tmp_path.iterdir())])
    assert schedule(traj.params) == record_steps
    assert states.shape == (len(record_steps), grid.n)
    assert not traj.final.values.flags.writeable
    assert traj.final.grid == grid
    np.testing.assert_array_equal(states, every_step[record_steps])
    np.testing.assert_array_equal(traj.final.values, every_step[-1])
    np.testing.assert_array_equal(traj.diagnostics["t"],
                                  [k * 1e-2 for k in record_steps])


def test_diagnostic_columns_equal_per_field_functions(grid):
    """Each column is the per-field function on WaveField(grid, row)."""
    mu = AtomicMeasure((-8.0, 8.0), np.array([-2.0, 0.5, 3.0]),
                       np.array([1.0, 2.0, 1.0]))
    pot = truncated_potential(mu, grid, 0.2, "fully_truncated")
    params = SolverParams(dt=1e-3, t_final=0.02, record_every=5)
    traj = evolve(gaussian_field(grid), pot, params, measure=mu)
    fields = [WaveField(grid, row)
              for row in drain([gaussian_field(grid)], pot, params)[0]]
    l2mu = hat_pairing(grid, weight_profile(mu).nk_squared)
    atoms = domain_atoms(grid, mu)
    expect = {
        "mass": [mass(f) for f in fields],
        "energy": [energy(f, pot) for f in fields],
        "h1": [sobolev_norm(f, 1.0) for f in fields],
        "l2mu": [weighted_l2_norm(f, l2mu) for f in fields],
        "sup": [sup_norm(f) for f in fields],
        "quartic": [quartic_measure_integral(f, atoms) for f in fields],
    }
    for column, values in expect.items():
        np.testing.assert_array_equal(traj.diagnostics[column], values)


def test_quartic_recording_toggle(grid):
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0]), np.array([1.0]))
    on = evolve_regularized(gaussian_field(grid), mu, 0.2,
                            SolverParams(dt=1e-2, t_final=0.02))
    off = evolve_regularized(gaussian_field(grid), mu, 0.2,
                             SolverParams(dt=1e-2, t_final=0.02,
                                          record_quartic=False))
    assert np.all(np.isfinite(on.diagnostics["quartic"]))
    assert np.all(np.isnan(off.diagnostics["quartic"]))


def test_blow_up_reports_the_step_a_drifting_bump_overflows():
    """A bump too large to square drifts onto the support of V: the first
    non-finite value is the kick's |psi|^2 at step 3, not at the start.

    Each free step moves the bump's centre by 2 k dt = 8, so the pre-kick
    states of steps 1 and 2 (centres -16 and -8, widths under 1.2) have only
    rounding noise on the support, while at step 3 the centre is 0 and the
    peak 2e154 * 2**-0.25 squares past the largest double.
    """
    grid = Grid(32.0, 2048)
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0]), np.array([1.0]))
    pot = truncated_potential(mu, grid, 0.2, "fully_truncated")
    bump = gaussian_field(grid, center=-20.0, amplitude=2e154)
    psi0 = WaveField(grid, bump.values * np.exp(40j * grid.x))
    with pytest.raises(BlowUpError) as info, \
            np.errstate(over="ignore", invalid="ignore"):
        drain([psi0], pot, SolverParams(dt=0.1, t_final=1.0))
    assert info.value.step == 3


def test_non_finite_diagnostic_is_a_blow_up(grid):
    """A start whose state stays finite but whose |psi|^4 overflows records
    a non-finite energy at step 0; the run raises BlowUpError naming the
    column and the record's step instead of returning the value.  The same
    holds with the quartic column off, which is NaN by design and not
    checked."""
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0]), np.array([1.0]))
    pot = truncated_potential(mu, grid, 0.2, "fully_truncated")
    psi0 = gaussian_field(grid, amplitude=1e80)
    for record_quartic in (True, False):
        params = SolverParams(dt=1e-2, t_final=0.02,
                              record_quartic=record_quartic)
        with pytest.raises(BlowUpError,
                           match=r"recorded energy at step 0 \(t = 0\)") \
                as info, np.errstate(over="ignore", invalid="ignore"):
            evolve(psi0, pot, params, measure=mu)
        assert info.value.step == 0


def test_non_finite_diagnostic_stops_the_kernel_at_its_record(
        grid, monkeypatch):
    """A diagnostic that turns non-finite at a later record, while every
    state stays finite, raises at that record's step, and the kernel is
    asked for no record past it."""
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.0]), np.array([1.0]))
    pot = truncated_potential(mu, grid, 0.2, "fully_truncated")
    params = SolverParams(dt=1e-2, t_final=0.1, record_every=2)
    sup_calls, reached = [], []

    def sup_nan_at_record_2(f):
        sup_calls.append(f)
        return np.nan if len(sup_calls) == 3 else sup_norm(f)

    def watched(starts, potential, params):
        for step, block in evolve_many(starts, potential, params):
            reached.append(step)
            yield step, block

    monkeypatch.setattr(solver, "sup_norm", sup_nan_at_record_2)
    monkeypatch.setattr(solver, "evolve_many", watched)
    with pytest.raises(BlowUpError, match=r"recorded sup at step 4 ") as info:
        evolve(gaussian_field(grid), pot, params, measure=mu)
    assert info.value.step == 4
    assert reached == [0, 2, 4]


def four_fft_strang(psi0, potential, dt, record_steps):
    """The textbook Strang step L(dt/2) N(dt) L(dt/2), each free half step
    an FFT, a multiply and an IFFT; returns the states at record_steps."""
    half = np.exp(-0.5j * dt * potential.grid.xi**2)
    v, states = psi0.values, []
    for step in range(record_steps[-1] + 1):
        if step:
            v = np.fft.ifft(half * np.fft.fft(v))
            v = v * np.exp(-2j * dt * potential.values * np.abs(v)**2)
            v = np.fft.ifft(half * np.fft.fft(v))
        if step in record_steps:
            states.append(v)
    return np.array(states)


@pytest.mark.parametrize("n_steps, every, record_steps", [
    (12, 1, list(range(13))),
    (40, 7, [0, 7, 14, 21, 28, 35, 40])])
def test_fused_steps_match_the_four_fft_strang_step(grid, n_steps, every,
                                                    record_steps):
    """Fusing the free half steps between records changes only rounding:
    every record row of a B = 3 stack matches the unfused step to 1e-12,
    and record 0 is the start itself."""
    mu = AtomicMeasure((-8.0, 8.0), np.array([-1.5, 0.5, 2.0]),
                       np.array([1.0, 2.0, 1.5]))
    pot = truncated_potential(mu, grid, 0.4, "mollified_only")
    starts = [gaussian_field(grid, amplitude=2.0),
              *(random_field(grid, rng.generator(k)) for k in range(2))]
    params = SolverParams(dt=2e-3, t_final=n_steps * 2e-3,
                          record_every=every)
    for psi0, states in zip(starts, drain(starts, pot, params)):
        np.testing.assert_array_equal(states[0], psi0.values)
        expect = four_fft_strang(psi0, pot, params.dt, record_steps)
        assert states.shape == expect.shape
        for got, want in zip(states, expect):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n_starts", [1, 4])
def test_transforms_per_call(grid, monkeypatch, n_starts):
    """The stack stays in Fourier space between steps: one FFT to enter it,
    an IFFT and an FFT around each kick, and one IFFT per record after the
    start, whatever the number of starts."""
    counts = {"fft": 0, "ifft": 0}
    for name in counts:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    mu = AtomicMeasure((-8.0, 8.0), np.array([0.5]), np.array([1.0]))
    pot = truncated_potential(mu, grid, 0.2, "fully_truncated")
    n_steps, records = 10, 5  # records at steps 0, 3, 6, 9 and 10
    stack = drain([gaussian_field(grid)] * n_starts, pot,
                  SolverParams(dt=1e-2, t_final=0.1, record_every=3))
    assert stack.shape == (n_starts, records, grid.n)
    assert counts["fft"] + counts["ifft"] == 1 + 2 * n_steps + (records - 1)


def test_stack_rows_equal_single_runs_bit_for_bit(tmp_path):
    """Each row of a stack is the same start run alone, to the last bit:
    each (R, N) block equals the snapshots of ``evolve`` on its start.

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
    stacked = drain(starts, pot, params)
    assert stacked.shape[0] == len(starts)
    for k, (psi0, block) in enumerate(zip(starts, stacked)):
        evolve(psi0, pot, params, measure=mu, snapshots=tmp_path / str(k))
        alone = [load_field_bin(p).values
                 for p in sorted((tmp_path / str(k)).iterdir())]
        np.testing.assert_array_equal(block, alone)


def test_evolve_many_input_checks(grid):
    """The starts, their grid and the (B, N) stack's size are checked when
    ``evolve_many`` is called, before any record is asked for."""
    params = SolverParams(dt=1e-2, t_final=0.02)
    with pytest.raises(ValueError, match="at least one"):
        evolve_many([], zero_potential(grid), params)
    other = gaussian_field(Grid(16.0, 256))
    with pytest.raises(ValueError, match="must share a grid"):
        evolve_many([gaussian_field(grid), other], zero_potential(grid),
                    params)
    too_many = [gaussian_field(grid)] * (MAX_ENTRIES // grid.n + 1)
    with pytest.raises(ConfigError, match="stack entries"):
        evolve_many(too_many, zero_potential(grid), params)


@pytest.mark.parametrize("n_finite", [0, 1], ids=["alone", "between_finite"])
def test_blow_up_in_one_row_stops_the_stack(grid, n_finite):
    """An all-NaN row, alone or with a finite row on each side, stops the
    stack at step 1."""
    bad = WaveField(grid, np.full(grid.n, np.nan, dtype=np.complex128))
    finite = [gaussian_field(grid)] * n_finite
    starts = finite + [bad] + finite
    with pytest.raises(BlowUpError) as info:
        drain(starts, zero_potential(grid), SolverParams(dt=1e-2, t_final=0.1))
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
    err = l2_norm(WaveField(grid, split.final.values - ref.values))
    assert err < 1e-6


@pytest.mark.parametrize("dt", [1e-300, 0.0, -1.0, float("nan")])
def test_oracle_refuses_a_step_it_cannot_run(monkeypatch, dt):
    """A dt that is not positive and finite, or a step count past the
    ceiling, is a ValueError before the first right-hand side."""
    grid = Grid(16.0, 256)
    psi0, potential = gaussian_field(grid), zero_potential(grid)

    def no_fft(*args, **kwargs):
        raise AssertionError("stepped before the step was checked")

    monkeypatch.setattr(np.fft, "fft", no_fft)
    with pytest.raises(ValueError, match="oracle"):
        oracle_evolve(psi0, potential, 0.05, dt)


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
    assert len(lines) == len(traj.diagnostics["t"]) + 1


def test_snapshots_round_trip(tmp_path, grid):
    params = SolverParams(dt=1e-2, t_final=0.03, record_every=1)
    psi0, potential = gaussian_field(grid), zero_potential(grid)
    traj = evolve(psi0, potential, params, measure=no_atoms(grid),
                  snapshots=tmp_path / "snaps")
    records = drain([psi0], potential, params)[0]
    names = sorted(p.name for p in (tmp_path / "snaps").iterdir())
    assert names == [f"state_{i:06d}.bin" for i in range(len(records))]
    assert names == [snapshot_name(i) for i in range(len(traj.diagnostics["t"]))]
    mid = load_field_bin(tmp_path / "snaps" / names[1])
    np.testing.assert_array_equal(mid.values, records[1])
