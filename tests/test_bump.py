import hashlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import child_env
from sprinkled_nls.bump import (BUMP_INTEGRAL, BUMP_NORMALIZER, _step_table,
                                bump, bump_scaled, cutoff, plateau_cutoff,
                                raw_bump, smoothstep)

# frozen from 50-digit adaptive quadrature of exp(-1/(1-x^2)) over (-1, 1)
RAW_BUMP_MASS = 0.44399381616807944
BUMP_PEAK = 0.82856883986910515  # = BUMP_NORMALIZER / e


def test_raw_bump_mass_matches_quadrature():
    val, err = quad(raw_bump, -1.0, 1.0, epsabs=1e-14, epsrel=1e-14)
    assert abs(val - RAW_BUMP_MASS) < 1e-12
    assert BUMP_INTEGRAL == RAW_BUMP_MASS
    assert BUMP_NORMALIZER == pytest.approx(1.0 / RAW_BUMP_MASS, rel=1e-16)


def test_raw_bump_support_and_symmetry():
    t = np.linspace(-2.0, 2.0, 801)
    v = raw_bump(t)
    assert np.all(v[np.abs(t) >= 1.0] == 0.0)
    assert np.all(v[np.abs(t) < 1.0] > 0.0)
    np.testing.assert_allclose(v, raw_bump(-t), rtol=0, atol=0)
    assert raw_bump(0.0) == pytest.approx(np.exp(-1.0), rel=1e-15)


def test_bump_is_probability_density():
    val, _ = quad(bump, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12)
    assert val == pytest.approx(1.0, abs=1e-11)
    assert bump(0.0) == pytest.approx(BUMP_PEAK, rel=1e-15)


@pytest.mark.parametrize("eps", [1.0, 0.4, 0.1, 0.05])
def test_bump_scaled_keeps_unit_mass(eps):
    val, _ = quad(lambda x: bump_scaled(x, eps), -eps, eps,
                  epsabs=1e-13, epsrel=1e-13)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_bump_scaled_peak_scaling():
    assert bump_scaled(0.0, 0.1) == pytest.approx(10.0 * BUMP_PEAK, rel=1e-15)
    assert bump_scaled(0.0, 0.1) == pytest.approx(8.2856883986910515, rel=1e-15)


def test_bump_scaled_rejects_bad_eps():
    with pytest.raises(ValueError):
        bump_scaled(0.0, 0.0)
    with pytest.raises(ValueError):
        bump_scaled(0.0, -0.1)


def test_smoothstep_midpoint_exact():
    assert smoothstep(0.5) == 0.5


def test_smoothstep_symmetry():
    t = np.linspace(-0.5, 1.5, 2001)
    np.testing.assert_allclose(smoothstep(t) + smoothstep(1.0 - t), 1.0,
                               rtol=0, atol=1e-15)


def test_smoothstep_quarter_value():
    # frozen from 50-digit quadrature of the normalized bump integral
    assert smoothstep(0.25) == pytest.approx(0.12296728327732908, abs=1e-9)


def test_smoothstep_monotone_and_clamped():
    t = np.linspace(-1.0, 2.0, 4001)
    v = smoothstep(t)
    assert np.all(np.diff(v) >= 0.0)
    assert np.all(v[t <= 0.0] == 0.0)
    assert np.all(v[t >= 1.0] == 1.0)


def test_smoothstep_table_bytes_are_pinned():
    """The table built on first use holds the 65,537 nodes and values it
    held when it was built at import, byte for byte."""
    t, cum = _step_table()
    assert len(t) == len(cum) == 65537
    assert hashlib.sha1(t.tobytes()).hexdigest() == \
        "f2b57a8d0e39c51a2de20f91ccbf1949cd8dc4f0"
    assert hashlib.sha1(cum.tobytes()).hexdigest() == \
        "8f4bf6f7bb884d8c984d9d2c59532d8475f59995"


# run in a fresh interpreter, where no earlier test has built the table
LAZY_TABLE_SCRIPT = """
import sprinkled_nls
from sprinkled_nls import bump
from sprinkled_nls.field import Grid
from sprinkled_nls.mollify import truncated_potential
from sprinkled_nls.point_process import AtomicMeasure
from sprinkled_nls.studies import moment_study

moment_study(None, 1000, 0)
assert bump._step_table.cache_info().misses == 0, "a moment study built it"
mu = AtomicMeasure((-16.0, 16.0), [0.0], [1.0])
for _ in range(2):
    truncated_potential(mu, Grid(16.0, 512), 0.5, "fully_truncated")
assert bump._step_table.cache_info().misses == 1, "not built exactly once"
"""


def test_smoothstep_table_is_built_on_first_use():
    """Importing the package and running a moment study, which tapers
    nothing, leave the smoothstep table unbuilt; the first tapered
    potential builds it, and the next one reuses it."""
    proc = subprocess.run([sys.executable, "-c", LAZY_TABLE_SCRIPT],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


def test_plateau_cutoff_regions():
    t = np.linspace(-3.0, 3.0, 1201)
    v = plateau_cutoff(t)
    assert np.all(v[np.abs(t) <= 1.0] == 1.0)
    assert np.all(v[np.abs(t) >= 2.0] == 0.0)
    inside = (np.abs(t) > 1.0) & (np.abs(t) < 2.0)
    assert np.all((v[inside] >= 0.0) & (v[inside] <= 1.0))


@pytest.mark.parametrize("eps", [1.0, 0.25, 0.1])
def test_cutoff_rescaling(eps):
    x = np.linspace(-3.0 / eps, 3.0 / eps, 601)
    np.testing.assert_allclose(cutoff(x, eps), plateau_cutoff(eps * x),
                               rtol=0, atol=0)
    assert cutoff(np.array([1.0 / eps]), eps)[0] == 1.0
    assert cutoff(np.array([2.0 / eps]), eps)[0] == 0.0
