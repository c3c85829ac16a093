import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from sprinkled_nls import solver, studies
from sprinkled_nls.field import Grid, gaussian_field
from sprinkled_nls.point_process import AtomicMeasure
from sprinkled_nls.solver import evolve_many

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")


@pytest.fixture
def grid():
    return Grid(16.0, 512)


@pytest.fixture
def fine_grid():
    return Grid(32.0, 4096)


@pytest.fixture
def unit_atom():
    """Single unit mass at the origin; weight is max(4, 5 - |x|)."""
    return AtomicMeasure((-16.0, 16.0), np.array([0.0]), np.array([1.0]))


@pytest.fixture
def gauss(fine_grid):
    return gaussian_field(fine_grid)


def record_steps(params) -> list[int]:
    """The steps a run records: 0, every record_every steps, and the last."""
    return sorted({*range(0, params.n_steps, params.record_every),
                   params.n_steps})


def drain(starts, potential, params) -> np.ndarray:
    """``evolve_many``'s records as one (B, R, N) array, after checking
    that it yields exactly ``record_steps(params)``, each block a new (B, N)
    array that shares no memory with the starts or an earlier block."""
    steps, blocks = [], []
    held = [psi0.values for psi0 in starts]
    for step, block in evolve_many(starts, potential, params):
        assert block.shape == (len(starts), potential.grid.n)
        assert not any(np.may_share_memory(block, b) for b in held + blocks)
        steps.append(step)
        blocks.append(block)
    assert steps == record_steps(params)
    return np.stack(blocks, axis=1)


@pytest.fixture
def no_step(monkeypatch):
    """Where the solver and the studies call ``evolve_many``, a kernel that
    yields record 0 and fails when asked for record 1: a run that passes
    with it took no step."""
    def record_0_only(starts, potential, params):
        records = evolve_many(starts, potential, params)
        yield next(records)
        raise AssertionError("a step was taken")

    for module in (solver, studies):
        monkeypatch.setattr(module, "evolve_many", record_0_only)


def child_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH, so
    a child process imports the package under test without an install."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
