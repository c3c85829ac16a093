"""The slowly varying weight built from an atomic measure.

The weight machinery discretizes the measure into unit-interval masses
mu(I_k), I_k = [k-1/2, k+1/2) (an atom on k+1/2 belongs to I_{k+1}), and
forms

    N_k^2 = 4 + max(0, sup over occupied intervals l of mu(I_l)^2 - |k-l|),

then interpolates linearly between integers:

    w(x) = (1+k-x) N_k^2 + (x-k) N_{k+1}^2   for x in [k, k+1).

N_k^2 >= 4, neighbouring values differ by at most 1, w is 1-Lipschitz, and
w(x) grows at most like N_0^2 + |x|.  The weighted norm ||f||^2 = int |f|^2 w
is equivalent to the block sum over unit intervals sum_k N_k^2 ||chi_k f||^2
with a smooth partition of unity chi_k.

Because w is the sum of hats N_k^2 hat(x - k), the weighted norm over
[-L, L) is the exact pairing sum_k N_k^2 h_k of the profile with the hat
moments h_k of |f|^2 (``field.hat_moments``, for the trigonometric
interpolant of f).  The moments depend on the field only, so one set serves
every profile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bump import raw_bump
from .field import WaveField, hat_moments
from .point_process import AtomicMeasure

__all__ = [
    "WeightProfile",
    "weight_profile",
    "chi",
    "weighted_l2_norm",
    "block_norm",
    "save_profile_csv",
]

BASELINE_NK_SQUARED = 4.0


@dataclass(frozen=True)
class WeightProfile:
    """N_k^2 over a range of integers wide enough to reach the baseline.

    Outside [k_start, k_end] the profile continues exactly as
    max(4, edge value - distance), because every occupied interval lies inside
    the covered range and each unit of distance lowers the sup by exactly one.
    """

    k_start: int
    nk_squared_values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.nk_squared_values, dtype=float).copy()
        v.setflags(write=False)
        object.__setattr__(self, "nk_squared_values", v)

    @property
    def k_end(self) -> int:
        return self.k_start + len(self.nk_squared_values) - 1

    def nk_squared(self, k) -> np.ndarray:
        """N_k^2 for integer (array) k, using the exact analytic extension."""
        k = np.asarray(k, dtype=np.int64)
        clipped = np.clip(k, self.k_start, self.k_end)
        dist = np.abs(k - clipped)
        vals = self.nk_squared_values[clipped - self.k_start]
        return np.maximum(BASELINE_NK_SQUARED, vals - dist)

    def weight(self, x) -> np.ndarray:
        """Piecewise-linear weight w(x) interpolating N_k^2 at the integers."""
        x = np.asarray(x, dtype=float)
        k = np.floor(x).astype(np.int64)
        frac = x - k
        left = self.nk_squared(k)
        right = self.nk_squared(k + 1)
        return left + frac * (right - left)


def _occupied_interval_masses(mu: AtomicMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Indices and masses of unit intervals carrying positive mass; each
    interval's atoms are added in position order."""
    ls, inverse = np.unique(np.floor(mu.positions + 0.5).astype(np.int64),
                            return_inverse=True)
    return ls, np.bincount(inverse, weights=mu.masses)


def weight_profile(mu: AtomicMeasure) -> WeightProfile:
    """Compute N_k^2 over the window plus a margin that provably reaches 4."""
    ls, lmass = _occupied_interval_masses(mu)
    a, b = mu.window
    if ls.size == 0:
        k_start = int(np.floor(a))
        ks = np.arange(k_start, int(np.ceil(b)) + 1)
        return WeightProfile(k_start, np.full(ks.size, BASELINE_NK_SQUARED))
    margin = 2 * int(np.ceil(BASELINE_NK_SQUARED + np.max(lmass) ** 2))
    k_start = int(min(np.floor(a), ls.min())) - margin
    k_end = int(max(np.ceil(b), ls.max())) + margin
    ks = np.arange(k_start, k_end + 1)
    # sup over occupied intervals of mass^2 - |k - l|, floored at 0
    contrib = lmass[None, :] ** 2 - np.abs(ks[:, None] - ls[None, :])
    sup = np.maximum(0.0, contrib.max(axis=1))
    return WeightProfile(k_start, BASELINE_NK_SQUARED + sup)


def chi(x, k: int) -> np.ndarray:
    """Smooth partition of unity over unit intervals: chi_k(x) = chi(x - k),
    supported on (k-1, k+1), with sum_k chi_k = 1 identically."""
    x = np.asarray(x, dtype=float) - k
    floor = np.floor(x)
    frac = x - floor
    denom = raw_bump(frac) + raw_bump(frac - 1.0)
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = raw_bump(x[inside]) / denom[inside]
    return out


def weighted_l2_norm(f: WaveField, mu: AtomicMeasure, *,
                     profile: WeightProfile | None = None) -> float:
    """Weighted norm ( int_{-L}^{L} |p|^2 w(x; mu) dx )^(1/2) of the
    trigonometric interpolant p of f, exact to roundoff.

    w = sum_k N_k^2 hat(x - k), so the integral is the pairing
    sum_k N_k^2 h_k with the hat moments h_k of |p|^2 (``hat_moments``).
    """
    if profile is None:
        profile = weight_profile(mu)
    ks, h = hat_moments(f)
    return float(np.sqrt(profile.nk_squared(ks) @ h))


def block_norm(f: WaveField, mu: AtomicMeasure, *,
               profile: WeightProfile | None = None) -> float:
    """( sum_k N_k^2 ||chi_k f||_{L^2}^2 )^(1/2) over the grid (plus margin)."""
    if profile is None:
        profile = weight_profile(mu)
    g = f.grid
    v2 = f.values.real**2 + f.values.imag**2
    total = 0.0
    for k in range(int(np.floor(-g.half_length)) - 1,
                   int(np.ceil(g.half_length)) + 2):
        c = chi(g.x, k)
        total += float(profile.nk_squared(k)) * float(np.sum(c * c * v2)) * g.dx
    return float(np.sqrt(total))


# --- serialization ---

def save_profile_csv(p: WeightProfile, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("k,nk_squared\n")
        for i, v in enumerate(p.nk_squared_values):
            fh.write(f"{p.k_start + i:d},{v:.17g}\n")
