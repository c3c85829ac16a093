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
every profile.  The other way round, the pairing of one profile with many
fields is the adjoint of that map (``field.hat_pairing``): one fixed linear
functional of the coefficients of |f|^2, built once per grid and profile,
so each norm costs a 2N-point IFFT, an rFFT and one dot product.

The sup is the max-plus form of the L^1 distance transform (Felzenszwalb and
Huttenlocher, "Distance transforms of sampled functions", 2012).  Over a
table of squared masses g (zero on empty intervals) it is a running-max
envelope built in log-doubling passes and their mirror,

    g[s:] = max(g[s:], g[:-s] - s),   g[:-s] = max(g[:-s], g[s:] - s),

for s = 1, 2, 4, ...; after both sweeps g_k = max_l (g_l - |k - l|), each
value reached along a path that subtracts the powers of two of |k - l| one
at a time.  The envelope is exact, not just close: for a double x with
1 <= x < 2^53 and an integer s >= 1, x - s >= 0 is exact, because x and s
are both multiples of ulp(x) <= 1.  A path value that goes negative stays
negative and only ever reaches the final max(0, .) as 0, so every table
entry equals the direct formula bit for bit.  Past the table's edges every
occupied interval lies on one side, so the sup there is max(0, g_edge - d)
at distance d from the edge, exact by the same argument as long as the
baseline 4 is added after the subtraction.  So ``weight_profile`` keeps
the envelope over the window's intervals [floor(a), ceil(b)], which the
window rule of ``point_process`` makes hold every atom, and reads N_k^2 at
any integer k through this edge rule; ``profile.csv`` holds the same rows.
The table's cells (samples x intervals) pass the size rule of ``errors``
before it is built, and its largest squared interval mass must be finite.
A ``PoissonBatch`` gets one envelope row per sample over the same intervals,
each row equal bit for bit to its sample's own profile.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bump import raw_bump
from .errors import MAX_ENTRIES, ConfigError, checked_size
from .field import HatPairing, WaveField
from .payload import write_csv
from .point_process import AtomicMeasure, PoissonBatch

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
    """The envelope g_k = max(0, max_l mu(I_l)^2 - |k - l|) over the
    window's intervals k_start ... k_end, one row per sample of a batch;
    N_k^2 = 4 + g_k, read at any integer through the edge rule of the module
    docstring."""

    k_start: int
    envelope: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.envelope, dtype=float).copy()
        g.setflags(write=False)
        object.__setattr__(self, "envelope", g)

    @property
    def k_end(self) -> int:
        return self.k_start + self.envelope.shape[-1] - 1

    def nk_squared(self, k) -> np.ndarray:
        """N_k^2 for integer (array) k: 4 + g_k inside, 4 + max(0, g_edge -
        d) at distance d past an edge; a batch gives one row per sample."""
        ks = np.asarray(k, dtype=np.int64)
        edge = np.clip(ks, self.k_start, self.k_end)
        # take keeps rows contiguous, so a row pairs by the same BLAS sum as a
        # 1-d profile (a [:, idx] gather is column-major)
        return BASELINE_NK_SQUARED + np.maximum(
            0.0, np.take(self.envelope, edge - self.k_start, axis=-1)
            - np.abs(ks - edge))

    def weight(self, x) -> np.ndarray:
        """Piecewise-linear weight w(x) interpolating N_k^2 at the integers."""
        x = np.asarray(x, dtype=float)
        k = np.floor(x).astype(np.int64)
        frac = x - k
        left = self.nk_squared(k)
        right = self.nk_squared(k + 1)
        return left + frac * (right - left)


def _interval_masses(positions: np.ndarray, masses: np.ndarray, offsets,
                     k_start: int, k_end: int) -> np.ndarray:
    """(B, K) table of mu_b(I_k) for k in [k_start, k_end], one row per
    sample of concatenated atoms (sample b is ``offsets[b]:offsets[b + 1]``;
    one measure is ``offsets = [0, count]``), binned by one bincount over
    (sample, interval) keys; each interval's atoms are added in position
    order.  A table past the size ceiling raises ConfigError before
    anything is allocated, and so does, once built, a table whose largest
    squared interval mass N_k^2 is not finite; an atom outside the range
    raises ValueError."""
    counts = np.diff(offsets)
    width = k_end - k_start + 1
    checked_size("interval table cells (samples x unit intervals)",
                 counts.size * width, MAX_ENTRIES)
    keys = np.floor(positions + 0.5).astype(np.int64)
    keys -= k_start
    if keys.size and not (0 <= keys.min() and keys.max() < width):
        raise ValueError(f"atoms outside the intervals [{k_start}, {k_end}]")
    keys += np.repeat(np.arange(0, counts.size * width, width), counts)
    table = np.bincount(keys, masses, minlength=counts.size * width
                        ).reshape(counts.size, width)
    top = float(table.max(initial=0.0))
    if not np.isfinite(top * top):  # a Python product overflows silently
        raise ConfigError(f"interval mass {top:.6g} has no finite square "
                          "N_k^2")
    return table


def _envelope(masses: np.ndarray) -> np.ndarray:
    """max_l (m_l^2 - |k - l|) along each row of a (B, K) mass table."""
    g = masses**2
    top = g.max(initial=0.0)
    for h in (g, g[:, ::-1]):  # a left-to-right sweep, then right-to-left
        s = 1
        while s < h.shape[1] and s <= top:
            np.maximum(h[:, s:], h[:, :-s] - s, out=h[:, s:])
            s *= 2
    return g


def weight_profile(mu: AtomicMeasure | PoissonBatch) -> WeightProfile:
    """The envelope over the window's intervals [floor(a), ceil(b)]: one row
    for a measure, one per sample (unit masses) for a batch."""
    batch = isinstance(mu, PoissonBatch)
    a, b = mu.window
    k_start = int(np.floor(a))
    g = _envelope(_interval_masses(
        mu.positions, np.ones(mu.positions.size) if batch else mu.masses,
        mu.offsets if batch else [0, mu.count], k_start, int(np.ceil(b))))
    return WeightProfile(k_start, g if batch else g[0])


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


def weighted_l2_norm(f: WaveField, weight: HatPairing) -> float:
    """Weighted norm ( int_{-L}^{L} |p|^2 w dx )^(1/2) of the trigonometric
    interpolant p of f against a profile's weight w, exact to roundoff.

    w = sum_k N_k^2 hat(x - k), so the integral is the pairing
    sum_k N_k^2 h_k with the hat moments h_k of |p|^2.  ``weight`` is the
    profile's ``hat_pairing(grid, profile.nk_squared)``, built once for f's
    grid; a field on another grid is a ValueError.
    """
    return float(np.sqrt(weight(f)))


def block_norm(f: WaveField, profile: WeightProfile) -> float:
    """( sum_k N_k^2 ||chi_k f||_{L^2}^2 )^(1/2) over the grid (plus margin)."""
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
    """N_k^2 over the profile's intervals k_start ... k_end; past them it
    follows the edge rule."""
    ks = np.arange(p.k_start, p.k_end + 1)
    write_csv(path, {"k": ks, "nk_squared": p.nk_squared(ks)})
