import numpy as np
import pytest
from hypothesis import settings

from sprinkled_nls.field import Grid, gaussian_field
from sprinkled_nls.point_process import AtomicMeasure

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
