import struct

import numpy as np
import pytest

from sprinkled_nls.errors import (MAX_ENTRIES, MAX_STEPS, ConfigError,
                                  checked_size)
from sprinkled_nls.field import (_BIN_MAGIC, Grid, GriddedDensity,
                                 gaussian_field, load_field_bin,
                                 load_field_csv, random_field)
from sprinkled_nls.measure import weight_profile
from sprinkled_nls.point_process import (AtomicMeasure, load_atoms_json,
                                         sample_bernoulli_crystal)
from sprinkled_nls.solver import SolverParams


@pytest.mark.parametrize("ceiling", [MAX_STEPS, MAX_ENTRIES])
def test_checked_size_is_one_closed_range(ceiling):
    """Sizes 0 ... ceiling pass as ints; anything else, NaN and inf
    included, raises ConfigError naming the size, its value and the
    ceiling."""
    assert checked_size("cells", ceiling, ceiling) == ceiling
    assert checked_size("cells", 0, ceiling) == 0
    assert type(checked_size("cells", float(ceiling), ceiling)) is int
    for n, shown in ((ceiling + 1, str(ceiling + 1)), (-1, "-1"),
                     (float("nan"), "nan"), (float("inf"), "inf")):
        with pytest.raises(ConfigError, match=rf"^cells is {shown}, outside "
                           rf"the size ceiling \[0, {ceiling}\]$"):
            checked_size("cells", n, ceiling)


GRID = Grid(8.0, 8)
# each check on a value that a config key or an input file sets
INPUT_CHECKS = {
    "grid length": lambda: Grid(0.0, 8),
    "grid points": lambda: Grid(8.0, 6),
    "grid top frequency": lambda: Grid(1e-320, 8),
    "density values": lambda: GriddedDensity(GRID, np.full(8, np.inf)),
    "gaussian width": lambda: gaussian_field(GRID, sigma=0.0),
    "gaussian center": lambda: gaussian_field(GRID, center=np.inf),
    "spectral width": lambda: random_field(GRID, np.random.default_rng(0),
                                           spectral_width=np.nan),
    "step": lambda: SolverParams(dt=0.0, t_final=1.0),
    "final time": lambda: SolverParams(dt=0.1, t_final=0.01),
    "record interval": lambda: SolverParams(dt=0.1, t_final=1.0,
                                            record_every=0),
    "atom position": lambda: AtomicMeasure((-1.0, 1.0), [2.0], [1.0]),
    "atom mass": lambda: AtomicMeasure((-1.0, 1.0), [0.0], [np.inf]),
    "lattice spacing": lambda: sample_bernoulli_crystal((-1.0, 1.0), 0.0,
                                                        1.0, 0),
    "occupation": lambda: sample_bernoulli_crystal((-1.0, 1.0), 1.0, 0.0, 0),
    "squared interval mass": lambda: weight_profile(
        AtomicMeasure((-1.0, 1.0), [0.0], [1e200])),
}


@pytest.mark.parametrize("check", INPUT_CHECKS.values(), ids=INPUT_CHECKS)
def test_input_checks_raise_config_error(check):
    with pytest.raises(ConfigError):
        check()


@pytest.mark.parametrize("name, text", [
    ("psi.csv", "x,re,im\n-8,zero,0\n"),
    ("psi.csv", "x,re,im\n-8,0,0\n-4,0\n"),
    ("psi.csv", "x,re,im\n-8,0,0\n0,0,0\n1,0,0\n4,0,0\n"),
    ("psi.csv", "x,re,im\n-8,0,0\n-4,nan,0\n0,0,0\n4,0,0\n"),
    ("psi.csv", "x,re,im\n-8,0,0\n-4,0,0\n0,0,-inf\n4,0,0\n"),
    ("psi.bin", "not a field"),
    pytest.param("psi.bin", _BIN_MAGIC + struct.pack("<dQ", 8.0, 4)
                 + np.array([0, np.nan, 0, 0], "<c16").tobytes(),
                 id="psi.bin-nan"),
    pytest.param("psi.bin", _BIN_MAGIC + struct.pack("<dQ", 8.0, 4)
                 + np.array([0, 0, complex(0, np.inf), 0], "<c16").tobytes(),
                 id="psi.bin-inf"),
    ("atoms.json", "{not json"),
    ("atoms.json", '{"window": "ab", "atoms": []}'),
    ("atoms.json", '{"window": {"lo": -1}, "atoms": []}'),
    ("atoms.json", '{"window": [null, 1], "atoms": []}'),
    ("atoms.json", '{"window": [-1, 1], "atoms": [[0, "heavy"]]}'),
    ("atoms.json", '{"window": [-1, 1], "atoms": [[0, 1], [0.5]]}'),
])
def test_loaders_raise_config_error(tmp_path, name, text):
    """A loader refuses a file its parser cannot read, as well as one
    whose values fail a check: a field file's values must be finite."""
    path = tmp_path / name
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    load = {".csv": load_field_csv, ".bin": load_field_bin,
            ".json": load_atoms_json}[path.suffix]
    with pytest.raises(ConfigError):
        load(path)

