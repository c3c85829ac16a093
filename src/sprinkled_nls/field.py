"""Periodic spectral grid, complex fields, norms, and Fourier operations.

Conventions: the domain is [-L, L) sampled at N equispaced points (N a power
of two), frequencies are xi_m = pi*m/L in FFT ordering, and all integral norms
use the periodic trapezoid rule dx * sum, which is exact for band-limited
integrands.  The Parseval-normalized spectral form of the Sobolev norm is

    ||f||_{H^s}^2 = (dx/N) * sum_m (1 + xi_m^2)^s |fhat_m|^2 .

A field is transformed once: every spectral operation here and in
``diagnostics`` reads ``WaveField.spectrum``, its forward FFT, computed on
first use and kept read-only.
"""
from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bump import plateau_cutoff
from .errors import MAX_ENTRIES, ConfigError, checked_size

__all__ = [
    "Grid",
    "WaveField",
    "GriddedDensity",
    "gaussian_field",
    "random_field",
    "l2_norm",
    "sup_norm",
    "sobolev_norm",
    "lp_project",
    "free_propagator",
    "evaluate_at",
    "hat_moments",
    "load_field_csv",
    "save_field_bin",
    "load_field_bin",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Periodic grid on [-L, L) with N points."""

    half_length: float
    n: int

    def __post_init__(self):
        if not (0 < self.half_length < np.inf):
            raise ConfigError("half_length must be positive and finite")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise ConfigError("n must be a power of two, at least 4")
        checked_size("grid points n", self.n, MAX_ENTRIES)
        # the free step and the Sobolev norms use xi^2; a finite square also
        # keeps dx large enough that an atom's grid index stays finite
        top = np.pi * (self.n // 2) / self.half_length
        if not top * top < np.inf:
            raise ConfigError("the top frequency pi (n/2) / half_length must "
                              "have a finite square")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return _readonly(-self.half_length + self.dx * np.arange(self.n))

    @cached_property
    def xi(self) -> np.ndarray:
        """Angular frequencies pi*m/L in FFT ordering."""
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx))


@dataclass(frozen=True)
class WaveField:
    """Complex field sampled on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.grid.n,):
            raise ValueError("values shape does not match grid")
        object.__setattr__(self, "values", _readonly(v.copy()))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """np.fft.fft(values), computed once and read-only."""
        return _readonly(np.fft.fft(self.values))


@dataclass(frozen=True)
class GriddedDensity:
    """Real non-negative density sampled on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError("values shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise ConfigError("density values must be finite")
        if np.any(v < 0):
            raise ValueError("density values must be non-negative")
        object.__setattr__(self, "values", _readonly(v.copy()))


def gaussian_field(grid: Grid, sigma: float = 1.0, center: float = 0.0,
                   amplitude: float = 1.0) -> WaveField:
    """amplitude * exp(-((x-center)/sigma)^2); sigma=1, center=0 gives exp(-x^2)."""
    if not sigma > 0:
        raise ConfigError("sigma must be positive")
    if not np.isfinite([center, amplitude]).all():
        raise ConfigError("center and amplitude must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # exp(-inf) = 0 is exact
        u = (grid.x - center) / sigma
        return WaveField(grid, amplitude * np.exp(-u * u).astype(np.complex128))


def random_field(grid: Grid, gen: np.random.Generator,
                 spectral_width: float = 3.0) -> WaveField:
    """Random smooth field of unit H^1 norm drawn from gen: Gaussian spectral
    amplitudes with an exp(-(xi/width)^2) envelope."""
    if not spectral_width > 0:
        raise ConfigError("spectral_width must be positive")
    with np.errstate(over="ignore", invalid="ignore"):  # exp(-inf) = 0 is exact
        envelope = np.exp(-((grid.xi / spectral_width) ** 2))
    coeff = (gen.standard_normal(grid.n) + 1j * gen.standard_normal(grid.n)) * envelope
    f = WaveField(grid, np.fft.ifft(coeff))
    return WaveField(grid, f.values / sobolev_norm(f, 1.0))


def l2_norm(f: WaveField) -> float:
    v = f.values
    return float(np.sqrt(np.sum(v.real**2 + v.imag**2) * f.grid.dx))


def sup_norm(f: WaveField) -> float:
    return float(np.max(np.abs(f.values)))


def sobolev_norm(f: WaveField, s: float) -> float:
    """Spectral H^s norm for s in [-2, 2]; s = 0 agrees with l2_norm."""
    if not (-2.0 <= s <= 2.0):
        raise ValueError("s must lie in [-2, 2]")
    fhat = f.spectrum
    weight = (1.0 + f.grid.xi**2) ** s
    return float(np.sqrt(np.sum(weight * (fhat.real**2 + fhat.imag**2))
                         * f.grid.dx / f.grid.n))


def lp_project(f: WaveField, n_cut: float) -> WaveField:
    """Frequency projection at or below n_cut: the spectrum times the smooth
    plateau at xi/n_cut (pass-band |xi| <= n_cut, gone beyond 2*n_cut)."""
    if n_cut < 1:
        raise ValueError("n_cut must be at least 1")
    return WaveField(f.grid, np.fft.ifft(f.spectrum
                                         * plateau_cutoff(f.grid.xi / n_cut)))


def free_propagator(f: WaveField, t: float) -> WaveField:
    """Exact free evolution: spectral multiplication by exp(-i t xi^2)."""
    return WaveField(f.grid, np.fft.ifft(f.spectrum
                                         * np.exp(-1j * t * f.grid.xi**2)))


def _trig_sum(coeffs: np.ndarray, first: int, half_length: float,
              points) -> np.ndarray:
    """sum_j coeffs_j z^(first + j) at each point x, z = exp(i pi (x + L) / L),
    for K coefficients, K a power of two.

    The phase factors as z^(first + aB + b) = z^first (z^B)^a z^b with B about
    sqrt(K).  The powers z^b and (z^B)^a are running products of three
    exponentials per point, so M points cost O(M sqrt(K)) products and M
    small (1 x B) by (B x K/B) products instead of M K exponentials.  The
    products stay per point: one (M x B) product is large enough for BLAS to
    spread over threads, whose wake-up costs more than the product here.
    """
    k = coeffs.size
    b = 1 << (k.bit_length() // 2)
    s = (np.asarray(points, dtype=float).ravel() + half_length) * (np.pi / half_length)
    low = _powers(np.exp(1j * s), b)
    high = _powers(np.exp(1j * b * s), k // b) * np.exp(1j * first * s)[:, None]
    return np.sum(high * (low[:, None, :] @ coeffs.reshape(k // b, b).T)[:, 0],
                  axis=1)


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """z^0 .. z^(count-1) for each entry of z, one row per entry."""
    out = np.empty((z.size, count), dtype=np.complex128)
    out[:, 0] = 1.0
    out[:, 1:] = z[:, None]
    return np.cumprod(out, axis=1)


def evaluate_at(f: WaveField, points) -> np.ndarray:
    """Trigonometric-interpolant values at arbitrary points in [-L, L).

    Exact for band-limited fields; reproduces grid-node values to roundoff.
    Returns a 1-d complex array, one value per point.
    """
    n = f.grid.n
    return _trig_sum(np.fft.fftshift(f.spectrum) / n, -(n // 2),
                     f.grid.half_length, points)


def hat_moments(f: WaveField) -> tuple[np.ndarray, np.ndarray]:
    """Integers k and h_k = int_{-L}^{L} |p|^2 hat(x - k) dx for the
    trigonometric interpolant p of f, hat(t) = max(0, 1 - |t|).

    Every k whose hat meets (-L, L) is listed, so sum_k h_k = ||f||^2 and any
    piecewise-linear w with nodes at the integers pairs exactly:
    int |p|^2 w = sum_k w(k) h_k.  |p|^2 = sum_d g_d e_d has frequencies
    |d| <= N - 1, so its coefficients come alias-free from the 2N-point grid
    (e_d = exp(i theta_d (x + L)), theta_d = pi d / L).  With the
    antiderivatives G = g_0 x + sum_{d != 0} g_d e_d / (i theta_d) and
    H = g_0 x^2 / 2 - sum_{d != 0} g_d e_d / theta_d^2, each hat integral is
    a second difference of H over its support clipped to [-L, L], plus
    one-sided G terms where it is clipped; exact for any L, integer or not.
    """
    n, half_length = f.grid.n, f.grid.half_length
    # _trig_sum's b + 2N/b <= 3 sqrt(N) entries at each of <= 2L + 5 points
    checked_size("hat-moment entries (points x trig-sum terms)",
                 (2 * float(half_length) + 5) * 3 * n**0.5, MAX_ENTRIES)
    fhat = f.spectrum
    pad = np.zeros(2 * n, dtype=np.complex128)
    pad[: n // 2] = fhat[: n // 2]
    pad[-(n // 2):] = fhat[n // 2:]
    p = 2.0 * np.fft.ifft(pad)
    # |p|^2 is real, so g_-d = conj(g_d): keep d = 0 .. N-1 and double d > 0
    g = np.fft.rfft(p.real**2 + p.imag**2)[:n] / (2 * n)
    g0 = g[0].real
    theta = (np.pi / half_length) * np.arange(n)
    theta[0] = np.inf  # drops d = 0 from both sums
    # at x = -L and x = L every e_d is 1, so G there needs no evaluation
    g_end = 2.0 * float(np.sum(g.imag / theta))
    ks = np.arange(np.floor(-half_length), np.ceil(half_length) + 1)
    xs = np.clip(np.arange(ks[0] - 1, ks[-1] + 2), -half_length, half_length)
    hx = 0.5 * g0 * xs**2 - 2.0 * _trig_sum(g / theta**2, 0, half_length, xs).real
    # G terms have zero coefficients unless the point is clipped to +-L,
    # where g0 x + g_end is exact
    gx = g0 * xs + g_end
    a, b, d = slice(None, -2), slice(1, -1), slice(2, None)
    h = (hx[a] - 2.0 * hx[b] + hx[d] + 2.0 * gx[b] * (xs[b] - ks)
         - gx[a] * (xs[a] - ks + 1.0) + gx[d] * (ks + 1.0 - xs[d]))
    return ks.astype(np.int64), h


# --- serialization ---

_BIN_MAGIC = b"SNLSFLD1"


def load_field_csv(path) -> WaveField:
    with warnings.catch_warnings():
        # a file without data rows is reported by the shape check below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except ValueError as exc:
            raise ConfigError(f"field CSV {path}: {exc}") from exc
    if data.shape[1] != 3 or not np.isfinite(data).all():
        raise ConfigError(f"field CSV {path} needs x,re,im data rows of "
                          "finite values")
    x = data[:, 0]
    n = len(x)
    half_length = -x[0]
    grid = Grid(half_length, n)
    if not np.allclose(grid.x, x, rtol=0, atol=1e-12 * max(1.0, half_length)):
        raise ConfigError("CSV abscissae are not a uniform [-L, L) grid")
    return WaveField(grid, data[:, 1] + 1j * data[:, 2])


def save_field_bin(f: WaveField, path) -> None:
    """Binary layout: 8-byte magic, little-endian float64 L, uint64 N, then
    N complex128 values, little-endian."""
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<d", f.grid.half_length))
        fh.write(struct.pack("<Q", f.grid.n))
        fh.write(f.values.astype("<c16").tobytes())


def load_field_bin(path) -> WaveField:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _BIN_MAGIC:
            raise ConfigError("not a field binary file")
        header = fh.read(16)
        if len(header) != 16:
            raise ConfigError(f"field binary file {path} ends inside its header")
        half_length, n = struct.unpack("<dQ", header)
        if 16 * n > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ConfigError(f"field binary file {path} holds fewer than the "
                              f"{n} values its header declares")
        raw = fh.read(16 * n)
    values = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    if not np.isfinite(values).all():
        raise ConfigError(f"field binary file {path} holds a non-finite value")
    return WaveField(Grid(half_length, int(n)), values)

