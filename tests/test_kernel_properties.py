"""Symmetries of the stepping kernel, stated as properties of its records.

The flow i psi_t = -psi_xx + 2 V |psi|^2 psi commutes with translation (of
the start and the potential together), with a constant phase of the start
(gauge) and with reflection x -> -x.  On the periodic grid these are exact
index maps, so the split-step kernel keeps them up to rounding: a roll by j
points, a factor e^{i theta}, and k -> -k mod N (x_k = -L + k dx maps to
-x_k).  Each property drains two runs through ``evolve_many`` and compares
every record; the kernel's rounding reads a few 1e-15 relative.
"""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from conftest import drain
from sprinkled_nls import rng
from sprinkled_nls.field import Grid, GriddedDensity, WaveField, random_field
from sprinkled_nls.solver import SolverParams

TOL = 3e-14


@st.composite
def runs(draw):
    """A start, a hat potential and a short schedule on a small grid."""
    grid = Grid(draw(st.sampled_from((4.0, 8.0, 16.0))),
                draw(st.sampled_from((32, 64, 128, 256, 512))))
    start = random_field(grid, rng.generator(draw(st.integers(0, 2**32 - 1))))
    amplitude = draw(st.floats(0.5, 4.0))
    center = draw(st.floats(-grid.half_length, grid.half_length))
    width = draw(st.floats(0.3, grid.half_length))
    height = draw(st.floats(0.1, 5.0))
    hat = height * np.maximum(0.0, 1.0 - np.abs(grid.x - center) / width)
    dt = draw(st.floats(1e-4, 1e-2))
    n_steps = draw(st.integers(1, 24))
    params = SolverParams(dt=dt, t_final=n_steps * dt,
                          record_every=draw(st.integers(1, 6)))
    return WaveField(grid, amplitude * start.values), hat, params


def run(psi0, hat, params):
    """The (R, N) records of one start under the gridded potential hat."""
    return drain([psi0], GriddedDensity(psi0.grid, hat), params)[0]


def assert_close(got, want):
    assert np.linalg.norm(got - want) <= TOL * np.linalg.norm(want)


@given(case=runs(), j=st.integers(0, 2**16))
def test_translation(case, j):
    """Rolling the start and the potential by j points rolls every record."""
    psi0, hat, params = case
    j %= psi0.grid.n
    moved = run(WaveField(psi0.grid, np.roll(psi0.values, j)),
                np.roll(hat, j), params)
    assert_close(moved, np.roll(run(psi0, hat, params), j, axis=1))


@given(case=runs(), theta=st.floats(0.0, 2 * np.pi))
def test_gauge(case, theta):
    """e^{i theta} psi_0 evolves to e^{i theta} psi(t) at every record."""
    psi0, hat, params = case
    phase = np.exp(1j * theta)
    turned = run(WaveField(psi0.grid, phase * psi0.values), hat, params)
    assert_close(turned, phase * run(psi0, hat, params))


def reflect(v):
    """v[-k mod N] along the last axis: x -> -x on the periodic grid."""
    return np.roll(v[..., ::-1], 1, axis=-1)


@given(case=runs())
def test_reflection(case):
    """Reflecting the start and the potential reflects every record."""
    psi0, hat, params = case
    mirrored = run(WaveField(psi0.grid, reflect(psi0.values)), reflect(hat),
                   params)
    assert_close(mirrored, reflect(run(psi0, hat, params)))
