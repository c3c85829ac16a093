"""Random atomic measures on a window and their Laplace functionals.

Three samplers produce atomic measures: a homogeneous Poisson process
(independent uniform positions, Poisson-distributed count), a lattice with
independent Bernoulli site occupation (spacing h, probability p; h = p = 1
gives the full integer comb), and a fixed-count ensemble of n independent
uniform positions.  For a non-negative compactly supported test function phi,
the Laplace functional E exp(-integral phi dmu) has a closed form for each
model; the empirical estimator averages exp(-sum m_j phi(y_j)) over seeded
independent samples.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng as _rng

__all__ = [
    "AtomicMeasure",
    "TestFunction",
    "smoothed_indicator",
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


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite sum of point masses m_j at positions y_j inside a window."""

    window: tuple[float, float]
    positions: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        a, b = float(self.window[0]), float(self.window[1])
        if not (a < b):
            raise ValueError("window must satisfy a < b")
        pos = np.asarray(self.positions, dtype=float).copy()
        mas = np.asarray(self.masses, dtype=float).copy()
        if pos.shape != mas.shape or pos.ndim != 1:
            raise ValueError("positions and masses must be 1-d arrays of equal length")
        if pos.size and (np.any(pos < a) or np.any(pos > b)):
            raise ValueError("atom positions must lie inside the window")
        if np.any(~np.isfinite(pos)) or np.any(~np.isfinite(mas)):
            raise ValueError("atoms must be finite")
        if np.any(mas <= 0):
            raise ValueError("atom masses must be positive")
        if pos.size and np.any(np.diff(pos) < 0):
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

    def total_mass(self) -> float:
        return float(np.sum(self.masses))


@dataclass(frozen=True)
class TestFunction:
    """Non-negative continuous function with compact support [a, b].

    `breakpoints` lists the kinks; quadrature routines place nodes there so the
    piecewise-smooth structure never degrades the convergence order.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    breakpoints: tuple[float, ...] = ()

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        a, b = self.support
        out = np.zeros_like(x)
        inside = (x >= a) & (x <= b)
        if np.any(inside):
            out[inside] = self.fn(x[inside])
        return out


def smoothed_indicator(a: float, b: float, height: float = 1.0,
                       ramp: float = 0.05) -> TestFunction:
    """Indicator of [a, b] at the given height with linear edge ramps.

    The transition zones have full width `ramp` and are centered on the edges,
    so the integral equals height*(b-a) exactly and the support is
    [a - ramp/2, b + ramp/2].
    """
    if not (a < b):
        raise ValueError("need a < b")
    if height <= 0 or ramp <= 0 or ramp >= (b - a):
        raise ValueError("need height > 0 and 0 < ramp < b - a")
    lo, hi = a - ramp / 2, b + ramp / 2

    def fn(x):
        up = np.clip((x - lo) / ramp, 0.0, 1.0)
        dn = np.clip((hi - x) / ramp, 0.0, 1.0)
        return height * np.minimum(up, dn)

    return TestFunction(fn, (lo, hi),
                        (lo, a + ramp / 2, b - ramp / 2, hi))


# --- samplers ---

def sample_poisson(window: tuple[float, float], intensity: float,
                   seed: int) -> AtomicMeasure:
    """Homogeneous Poisson process: count ~ Poisson(intensity * |window|),
    positions i.i.d. uniform, unit masses."""
    a, b = float(window[0]), float(window[1])
    if not (a < b) or intensity <= 0:
        raise ValueError("need a < b and intensity > 0")
    gen = _rng.generator(seed)
    count = int(gen.poisson(intensity * (b - a)))
    positions = np.sort(gen.uniform(a, b, size=count))
    return AtomicMeasure((a, b), positions, np.ones(count))


def sample_bernoulli_crystal(window: tuple[float, float], spacing: float,
                             prob: float, seed: int) -> AtomicMeasure:
    """Unit masses at lattice sites k*spacing inside the closed window, each
    kept independently with probability prob."""
    a, b = float(window[0]), float(window[1])
    if not (a < b) or spacing <= 0 or not (0 < prob <= 1):
        raise ValueError("need a < b, spacing > 0, 0 < prob <= 1")
    k_lo = int(np.ceil(a / spacing - 1e-12))
    k_hi = int(np.floor(b / spacing + 1e-12))
    sites = spacing * np.arange(k_lo, k_hi + 1)
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
    a, b = float(window[0]), float(window[1])
    if not (a < b) or n < 0:
        raise ValueError("need a < b and n >= 0")
    gen = _rng.generator(seed)
    positions = np.sort(gen.uniform(a, b, size=n))
    return AtomicMeasure((a, b), positions, np.ones(n))


# --- Laplace functionals ---

def _piecewise_trapezoid(fn, lo: float, hi: float, breakpoints, step: float) -> float:
    """Composite trapezoid with nodes at every breakpoint; O(step^2) error."""
    cuts = sorted({lo, hi, *(t for t in breakpoints if lo < t < hi)})
    total = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        m = max(1, int(np.ceil((right - left) / step)))
        x = np.linspace(left, right, m + 1)
        y = fn(x)
        total += np.trapezoid(y, x)
    return float(total)


def poisson_laplace_functional(phi: TestFunction, intensity: float = 1.0,
                               step: float = 1e-4) -> float:
    """Closed form exp(-intensity * integral (1 - e^-phi) dx)."""
    lo, hi = phi.support
    integral = _piecewise_trapezoid(lambda x: 1.0 - np.exp(-phi(x)),
                                    lo, hi, phi.breakpoints, step)
    return float(np.exp(-intensity * integral))


def bernoulli_laplace_functional(phi: TestFunction, spacing: float, prob: float,
                                 window: tuple[float, float] | None = None) -> float:
    """Closed form: product over lattice sites of 1 + prob*(e^-phi(site) - 1)."""
    if spacing <= 0 or not (0 < prob <= 1):
        raise ValueError("need spacing > 0 and 0 < prob <= 1")
    a, b = window if window is not None else phi.support
    k_lo = int(np.ceil(a / spacing - 1e-12))
    k_hi = int(np.floor(b / spacing + 1e-12))
    sites = spacing * np.arange(k_lo, k_hi + 1)
    factors = 1.0 + prob * (np.exp(-phi(sites)) - 1.0)
    return float(np.prod(factors))


def fixed_count_laplace_functional(phi: TestFunction, window: tuple[float, float],
                                   n: int, step: float = 1e-4) -> float:
    """Closed form (1 + (1/|window|) * integral (e^-phi - 1) dx)^n."""
    a, b = float(window[0]), float(window[1])
    if not (a < b) or n < 1:
        raise ValueError("need a < b and n >= 1")
    lo, hi = phi.support
    if lo < a or hi > b:
        raise ValueError("test-function support must lie inside the window")
    integral = _piecewise_trapezoid(lambda x: np.exp(-phi(x)) - 1.0,
                                    lo, hi, phi.breakpoints, step)
    return float((1.0 + integral / (b - a)) ** n)


def empirical_laplace_functional(sampler: Callable[[int], AtomicMeasure],
                                 phis: Sequence[TestFunction], n_samples: int,
                                 seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimates (means, standard errors) of E exp(-integral phi
    dmu), one entry per test function, all on one sample set.

    Sample i draws from the substream (seed, i), so the estimates are
    reproducible and independent of evaluation order.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    vals = np.empty((n_samples, len(phis)))
    for i in range(n_samples):
        mu = sampler(_rng.substream_seed(seed, i))
        for j, phi in enumerate(phis):
            vals[i, j] = np.exp(-float(np.dot(mu.masses, phi(mu.positions))))
    means = np.mean(vals, axis=0)
    stderrs = np.std(vals, axis=0, ddof=1) / np.sqrt(n_samples)
    return means, stderrs


# --- serialization ---

def save_atoms_csv(mu: AtomicMeasure, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("position,mass\n")
        for y, m in zip(mu.positions, mu.masses):
            fh.write(f"{y:.17g},{m:.17g}\n")


def save_atoms_json(mu: AtomicMeasure, path) -> None:
    doc = {
        "window": [mu.window[0], mu.window[1]],
        "atoms": [[float(y), float(m)] for y, m in zip(mu.positions, mu.masses)],
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_atoms_json(path) -> AtomicMeasure:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not {"window", "atoms"} <= doc.keys():
        raise ValueError(f'atoms file {path} needs "window" and "atoms" keys')
    window = tuple(doc["window"])
    if len(window) != 2:
        raise ValueError(f'atoms file {path}: "window" needs two entries, '
                         "lo and hi")
    atoms = np.asarray(doc["atoms"], dtype=float)
    if atoms.shape == (0,):  # "atoms": [] is the empty measure
        atoms = atoms.reshape(0, 2)
    if atoms.ndim != 2 or atoms.shape[1] != 2:
        raise ValueError(f'atoms file {path}: each of "atoms" must be a '
                         "[position, mass] pair")
    return AtomicMeasure(window, atoms[:, 0], atoms[:, 1])
