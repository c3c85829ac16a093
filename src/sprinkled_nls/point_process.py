"""Random atomic measures on a window and their Laplace functionals.

Three samplers produce atomic measures: a homogeneous Poisson process
(independent uniform positions, Poisson-distributed count), a lattice with
independent Bernoulli site occupation (spacing h, probability p; h = p = 1
gives the full integer comb), and a fixed-count ensemble of n independent
uniform positions.  The test function phi is a smoothed indicator, whose
escape integral int (1 - e^-phi) dx is elementary, so the Laplace functional
E exp(-integral phi dmu) of each model is an exact closed form: exp(-escape)
for the Poisson process, (1 - escape/|window|)^n for the fixed count and a
product over the lattice sites for the crystal.  The empirical estimator
averages exp(-sum m_j phi(y_j)) over independent samples.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import rng as _rng
from .errors import MAX_ENTRIES, ConfigError, checked_size
from .payload import write_csv, write_json

__all__ = [
    "AtomicMeasure",
    "PoissonBatch",
    "SmoothedIndicator",
    "sample_poisson",
    "sample_bernoulli_crystal",
    "sample_comb",
    "sample_fixed_count",
    "poisson_laplace_functional",
    "bernoulli_laplace_functional",
    "fixed_count_laplace_functional",
    "empirical_laplace_functional",
    "save_atoms_csv",
    "save_atoms_json",
    "load_atoms_json",
]


def _checked_window(window) -> tuple[float, float]:
    """The window as floats if -2^52 <= a < b <= 2^52, else ConfigError:
    past 2^52 a double cannot tell k - 1/2 from k + 1/2."""
    a, b = float(window[0]), float(window[1])
    if not (-2.0**52 <= a < b <= 2.0**52):
        raise ConfigError(f"window ({a:g}, {b:g}) must satisfy "
                          "-2**52 <= lo < hi <= 2**52")
    return a, b


def _checked_positions(window, positions) -> tuple[tuple[float, float],
                                                   np.ndarray]:
    """The checked window and a private copy of the positions, a 1-d array
    inside the window (a NaN atom fails the comparison)."""
    a, b = _checked_window(window)
    pos = np.array(positions, dtype=float)
    if pos.ndim != 1:
        raise ValueError("atom positions must be a 1-d array")
    if not ((a <= pos) & (pos <= b)).all():
        raise ConfigError("atom positions must lie inside the window")
    return (a, b), pos


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite sum of point masses m_j at positions y_j inside a window."""

    window: tuple[float, float]
    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        (a, b), pos = _checked_positions(self.window, self.positions)
        mas = np.asarray(self.masses, dtype=float).copy()
        if pos.shape != mas.shape:
            raise ValueError("positions and masses must be 1-d arrays of equal length")
        # NaN fails every comparison, so this also rejects non-finite masses
        if not ((0 < mas) & (mas < np.inf)).all():
            raise ConfigError("atom masses must be positive and finite")
        if (pos[1:] < pos[:-1]).any():
            order = np.argsort(pos, kind="stable")
            pos, mas = pos[order], mas[order]
        pos.setflags(write=False)
        mas.setflags(write=False)
        object.__setattr__(self, "window", (a, b))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "masses", mas)

    @property
    def count(self) -> int:
        return int(self.positions.size)


@dataclass(frozen=True)
class PoissonBatch:
    """Unit-mass samples drawn together: every sample's positions
    concatenated, sample j being ``positions[offsets[j]:offsets[j + 1]]``.
    The atoms are checked as AtomicMeasure checks them, in one pass over
    the whole batch."""

    window: tuple[float, float]
    positions: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        (a, b), pos = _checked_positions(self.window, self.positions)
        offsets = np.asarray(self.offsets, dtype=np.int64).copy()
        if offsets.ndim != 1 or offsets.size < 1 or offsets[0] != 0 \
                or offsets[-1] != pos.size or (offsets[1:] < offsets[:-1]).any():
            raise ValueError("offsets must rise from 0 to the atom count")
        # the step into a sample's first atom may descend; no other may
        first = offsets[1:-1]
        first = first[(0 < first) & (first < pos.size)]
        descending = pos[1:] < pos[:-1]
        descending[first - 1] = False
        if descending.any():
            raise ValueError("each sample's positions must be sorted")
        pos.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "window", (a, b))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "offsets", offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def measure(self, j: int) -> AtomicMeasure:
        """Sample j as an AtomicMeasure."""
        pos = self.positions[self.offsets[j]:self.offsets[j + 1]]
        return AtomicMeasure(self.window, pos, np.ones(pos.size))


RAMP = 0.05


@dataclass(frozen=True)
class SmoothedIndicator:
    """Indicator of [a, b] at the given height with linear edge ramps.

    The transition zones have full width RAMP and are centered on the edges,
    so the integral equals height*(b-a) exactly and the support is
    [a - RAMP/2, b + RAMP/2].
    """

    a: float
    b: float
    height: float = 1.0

    def __post_init__(self):
        if not (self.a < self.b):
            raise ValueError("need a < b")
        if not 0 < self.height < math.inf or RAMP >= (self.b - self.a):
            raise ValueError("need 0 < height < inf and RAMP < b - a")

    @property
    def support(self) -> tuple[float, float]:
        return self.a - RAMP / 2, self.b + RAMP / 2

    def __call__(self, x):
        lo, hi = self.support
        x = np.asarray(x, dtype=float)
        up = np.clip((x - lo) / RAMP, 0.0, 1.0)
        dn = np.clip((hi - x) / RAMP, 0.0, 1.0)
        return self.height * np.minimum(up, dn)

    @property
    def escape(self) -> float:
        """The escape integral int (1 - e^-phi) dx in closed form: the
        plateau gives (b - a - RAMP)(1 - e^-h) and each ramp
        RAMP (1 - (1 - e^-h)/h)."""
        g = -math.expm1(-self.height)
        return (self.b - self.a - RAMP) * g + 2 * RAMP * (1 - g / self.height)


# --- samplers ---

def _poisson_positions(a: float, b: float, intensity: float,
                       seed) -> np.ndarray:
    """One sample's sorted positions: the count, then the uniforms, from the
    seed's own generator."""
    gen = _rng.generator(seed)
    count = gen.poisson(intensity * (b - a))
    positions = gen.uniform(a, b, size=count)
    positions.sort()
    return positions


def sample_poisson(window: tuple[float, float], intensity: float, seed
                   ) -> AtomicMeasure | PoissonBatch:
    """Homogeneous Poisson process: count ~ Poisson(intensity * |window|),
    positions i.i.d. uniform, unit masses.  A bad window or intensity, or a
    mean atom count of the call past the size ceiling, raises ConfigError
    before any draw.

    One seed (an int or a seed of ``rng.substream_seeds``) gives an
    AtomicMeasure; a list of seeds gives a PoissonBatch whose sample j is,
    bit for bit, the one-seed call on ``seed[j]``.
    """
    a, b = _checked_window(window)
    if not 0 < intensity < np.inf:
        raise ConfigError("need a finite intensity > 0")
    checked_size("mean atom count (intensity x window length x samples)",
                 intensity * (b - a) * (len(seed) if isinstance(seed, list)
                                        else 1), MAX_ENTRIES)
    if isinstance(seed, list):
        draws = [_poisson_positions(a, b, intensity, s) for s in seed]
        return PoissonBatch((a, b), np.concatenate([np.empty(0), *draws]),
                            np.cumsum([0] + [d.size for d in draws]))
    positions = _poisson_positions(a, b, intensity, seed)
    return AtomicMeasure((a, b), positions, np.ones(positions.size))


def _lattice_sites(a: float, b: float, spacing: float) -> np.ndarray:
    """The lattice sites k*spacing in [a, b]; a site within 1e-12 lattice
    steps of an edge counts as on it and is clipped onto it, so rounding
    neither drops an edge site nor puts one outside the window.  A spacing
    that is not positive and finite, or a site count past the size ceiling,
    raises ConfigError."""
    if not 0 < spacing < np.inf:
        raise ConfigError(f"lattice spacing {spacing:g} must be positive and "
                          "finite")
    k_lo = np.ceil(a / spacing - 1e-12)
    n = checked_size(f"lattice sites at spacing {spacing:g}",
                     np.floor(b / spacing + 1e-12) - k_lo + 1, MAX_ENTRIES)
    return np.clip(spacing * (k_lo + np.arange(n)), a, b)


def sample_bernoulli_crystal(window: tuple[float, float], spacing: float,
                             prob: float, seed: int) -> AtomicMeasure:
    """Unit masses at lattice sites k*spacing inside the closed window, each
    kept independently with probability prob."""
    a, b = _checked_window(window)
    if not 0 < prob <= 1:
        raise ConfigError("need 0 < prob <= 1")
    sites = _lattice_sites(a, b, spacing)
    if prob < 1:
        gen = _rng.generator(seed)
        keep = gen.random(sites.size) < prob
        sites = sites[keep]
    return AtomicMeasure((a, b), sites, np.ones(sites.size))


def sample_comb(window: tuple[float, float]) -> AtomicMeasure:
    """Deterministic unit comb: unit masses at every integer in the window."""
    return sample_bernoulli_crystal(window, 1.0, 1.0, seed=0)


def sample_fixed_count(window: tuple[float, float], n: int,
                       seed: int) -> AtomicMeasure:
    """Exactly n i.i.d. uniform unit-mass atoms in the window; n = 0 gives
    the empty measure."""
    a, b = _checked_window(window)
    n = checked_size("atom count n", n, MAX_ENTRIES)
    gen = _rng.generator(seed)
    positions = np.sort(gen.uniform(a, b, size=n))
    return AtomicMeasure((a, b), positions, np.ones(n))


# --- Laplace functionals ---

def poisson_laplace_functional(phi: SmoothedIndicator) -> float:
    """Closed form exp(-integral (1 - e^-phi) dx) for unit intensity."""
    return float(np.exp(-phi.escape))


def bernoulli_laplace_functional(phi: SmoothedIndicator, spacing: float,
                                 prob: float) -> float:
    """Closed form: product over lattice sites of 1 + prob*(e^-phi(site) - 1)."""
    if not 0 < prob <= 1:
        raise ValueError("need 0 < prob <= 1")
    sites = _lattice_sites(*phi.support, spacing)
    factors = 1.0 + prob * (np.exp(-phi(sites)) - 1.0)
    return float(np.prod(factors))


def fixed_count_laplace_functional(phi: SmoothedIndicator,
                                   window: tuple[float, float],
                                   n: int) -> float:
    """Closed form (1 - (1/|window|) * integral (1 - e^-phi) dx)^n."""
    a, b = _checked_window(window)
    if n < 1:
        raise ValueError("need n >= 1")
    lo, hi = phi.support
    if lo < a or hi > b:
        raise ValueError("test-function support must lie inside the window")
    return float((1.0 - phi.escape / (b - a)) ** n)


def empirical_laplace_functional(samples: Iterable[PoissonBatch],
                                 phis: Sequence[SmoothedIndicator]
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimates (means, standard errors) of E exp(-integral phi
    dmu), one entry per test function, all on one sample set.

    ``samples`` is any iterable of batches holding at least two independent
    samples in all, such as ``studies.poisson_sweep``; it is read once, in
    order.  Each phi is evaluated once per batch, and a sample's integral is
    the sum of phi over its unit atoms, added in position order.
    """
    vals = [np.empty((0, len(phis)))]
    for batch in samples:
        rows = np.repeat(np.arange(len(batch)), np.diff(batch.offsets))
        vals.append(np.exp(-np.column_stack([
            np.bincount(rows, phi(batch.positions), minlength=len(batch))
            for phi in phis])))
    vals = np.concatenate(vals)
    if len(vals) < 2:
        raise ValueError("need at least two samples")
    means = np.mean(vals, axis=0)
    stderrs = np.std(vals, axis=0, ddof=1) / np.sqrt(len(vals))
    return means, stderrs


# --- serialization ---

def save_atoms_csv(mu: AtomicMeasure, path) -> None:
    write_csv(path, {"position": mu.positions, "mass": mu.masses})


def save_atoms_json(mu: AtomicMeasure, path) -> None:
    write_json(path, {"window": mu.window,
                      "atoms": np.column_stack((mu.positions, mu.masses))})


def load_atoms_json(path) -> AtomicMeasure:
    with open(path) as fh:
        try:
            doc = json.load(fh)
            window = np.asarray(doc["window"], dtype=float)
            atoms = np.asarray(doc["atoms"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f'atoms file {path} needs a JSON object with '
                              f'"window" and "atoms" numbers: {exc!r}') from exc
    if window.shape != (2,):
        raise ConfigError(f'atoms file {path}: "window" needs two entries, '
                          "lo and hi")
    if atoms.shape == (0,):  # "atoms": [] is the empty measure
        atoms = atoms.reshape(0, 2)
    if atoms.ndim != 2 or atoms.shape[1] != 2:
        raise ConfigError(f'atoms file {path}: each of "atoms" must be a '
                          "[position, mass] pair")
    return AtomicMeasure(window, atoms[:, 0], atoms[:, 1])
