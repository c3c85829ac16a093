"""Smooth compactly supported building blocks.

One family of bump-derived functions feeds everything that needs smooth
localization: the mollifier kernel, the plateau cutoff used for spatial
truncation and frequency projections, and the partition of unity over unit
intervals.
"""
from __future__ import annotations

from functools import cache

import numpy as np

__all__ = [
    "BUMP_INTEGRAL",
    "BUMP_NORMALIZER",
    "raw_bump",
    "bump",
    "bump_scaled",
    "smoothstep",
    "plateau_cutoff",
    "cutoff",
]

# integral of exp(-1/(1-x^2)) over (-1, 1), frozen from adaptive quadrature
BUMP_INTEGRAL = 0.44399381616807944
# normalizer making the bump a probability density
BUMP_NORMALIZER = 1.0 / BUMP_INTEGRAL  # = 2.2522836210435810


def raw_bump(t):
    """exp(-1/(1-t^2)) on (-1, 1), zero outside; smooth and even."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def bump(t):
    """Unit-mass even smooth kernel supported on (-1, 1)."""
    return BUMP_NORMALIZER * raw_bump(t)


def bump_scaled(x, eps: float):
    """Width-eps rescaling bump(x/eps)/eps; keeps unit mass for every eps."""
    if not (0.0 < eps):
        raise ValueError("eps must be positive")
    return bump(np.asarray(x, dtype=float) / eps) / eps


# smoothstep S(t) = int_0^t raw_bump(2u-1) du, normalized so S(1) = 1.
# Tabulated on first use, so a run that never tapers anything never builds
# it; the integrand vanishes to all orders at both ends, so S is smooth and
# flat there, and symmetric: S(t) + S(1-t) = 1, S(1/2) = 1/2.
_STEP_NODES = 1 << 16


@cache
def _step_table() -> tuple[np.ndarray, np.ndarray]:
    """The nodes t and the values S(t) of the smoothstep table."""
    t = np.linspace(0.0, 1.0, _STEP_NODES + 1)
    f = raw_bump(2.0 * t - 1.0)
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(t))))
    cum /= cum[-1]
    # enforce exact symmetry of the table (kills cumulative-roundoff skew)
    return t, 0.5 * (cum + (1.0 - cum[::-1]))


def smoothstep(t):
    """Monotone smooth transition: 0 at t<=0, 1 at t>=1, flat at both ends."""
    t = np.asarray(t, dtype=float)
    return np.interp(t, *_step_table(), left=0.0, right=1.0)


def plateau_cutoff(t):
    """Smooth even plateau: 1 on [-1, 1], 0 outside (-2, 2)."""
    a = np.abs(np.asarray(t, dtype=float))
    return 1.0 - smoothstep(a - 1.0)


def cutoff(x, eps: float):
    """Rescaled plateau at scale 1/eps: 1 for |x| <= 1/eps, 0 for |x| >= 2/eps."""
    if not (0.0 < eps):
        raise ValueError("eps must be positive")
    return plateau_cutoff(eps * np.asarray(x, dtype=float))
