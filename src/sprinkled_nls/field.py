"""Periodic spectral grid, complex fields, norms, and Fourier operations.

Conventions: the domain is [-L, L) sampled at N equispaced points (N a power
of two), frequencies are xi_m = pi*m/L in FFT ordering, and all integral norms
use the periodic trapezoid rule dx * sum, which is exact for band-limited
integrands.  The Parseval-normalized spectral form of the Sobolev norm is

    ||f||_{H^s}^2 = (dx/N) * sum_m (1 + xi_m^2)^s |fhat_m|^2 .
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bump import plateau_cutoff

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
    "save_field_csv",
    "load_field_csv",
    "save_field_bin",
    "load_field_bin",
    "FLOAT_FMT",
]

# every float written to CSV uses 17 significant digits (round-trip exact)
FLOAT_FMT = "%.17g"


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Periodic grid on [-L, L) with N points."""

    half_length: float
    n: int

    def __post_init__(self):
        if not (self.half_length > 0):
            raise ValueError("half_length must be positive")
        if self.n < 4 or (self.n & (self.n - 1)) != 0:
            raise ValueError("n must be a power of two, at least 4")

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
            raise ValueError("density values must be finite")
        if np.any(v < 0):
            raise ValueError("density values must be non-negative")
        object.__setattr__(self, "values", _readonly(v.copy()))

    def integral(self) -> float:
        return float(np.sum(self.values) * self.grid.dx)


def gaussian_field(grid: Grid, sigma: float = 1.0, center: float = 0.0,
                   amplitude: float = 1.0) -> WaveField:
    """amplitude * exp(-((x-center)/sigma)^2); sigma=1, center=0 gives exp(-x^2)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    u = (grid.x - center) / sigma
    return WaveField(grid, amplitude * np.exp(-u * u).astype(np.complex128))


def random_field(grid: Grid, seed_rng, spectral_width: float = 3.0,
                 normalize: str | None = "h1") -> WaveField:
    """Seeded random smooth field: Gaussian spectral amplitudes with an
    exp(-(xi/width)^2) envelope, optionally normalized in H^1 or L^2."""
    from . import rng as _rng

    gen = seed_rng if isinstance(seed_rng, np.random.Generator) else _rng.generator(seed_rng)
    envelope = np.exp(-((grid.xi / spectral_width) ** 2))
    coeff = (gen.standard_normal(grid.n) + 1j * gen.standard_normal(grid.n)) * envelope
    values = np.fft.ifft(coeff)
    f = WaveField(grid, values)
    if normalize == "h1":
        scale = sobolev_norm(f, 1.0)
    elif normalize == "l2":
        scale = l2_norm(f)
    elif normalize is None:
        return f
    else:
        raise ValueError("normalize must be 'h1', 'l2', or None")
    return WaveField(grid, f.values / scale)


def l2_norm(f: WaveField) -> float:
    v = f.values
    return float(np.sqrt(np.sum(v.real**2 + v.imag**2) * f.grid.dx))


def sup_norm(f: WaveField) -> float:
    return float(np.max(np.abs(f.values)))


def sobolev_norm(f: WaveField, s: float) -> float:
    """Spectral H^s norm for s in [-2, 2]; s = 0 agrees with l2_norm."""
    if not (-2.0 <= s <= 2.0):
        raise ValueError("s must lie in [-2, 2]")
    fhat = np.fft.fft(f.values)
    weight = (1.0 + f.grid.xi**2) ** s
    return float(np.sqrt(np.sum(weight * (fhat.real**2 + fhat.imag**2))
                         * f.grid.dx / f.grid.n))


def lp_project(f: WaveField, n_cut: float, mode: str = "at_or_below") -> WaveField:
    """Frequency projection with the smooth plateau multiplier at scale n_cut.

    "at_or_below" multiplies the spectrum by the plateau at xi/n_cut (pass-band
    |xi| <= n_cut, gone beyond 2*n_cut); "above" is the exact complement, so the
    two modes always sum back to f.
    """
    if n_cut < 1:
        raise ValueError("n_cut must be at least 1")
    fhat = np.fft.fft(f.values)
    low = fhat * plateau_cutoff(f.grid.xi / n_cut)
    if mode == "at_or_below":
        out = low
    elif mode == "above":
        out = fhat - low
    else:
        raise ValueError("mode must be 'at_or_below' or 'above'")
    return WaveField(f.grid, np.fft.ifft(out))


def free_propagator(f: WaveField, t: float) -> WaveField:
    """Exact free evolution: spectral multiplication by exp(-i t xi^2)."""
    fhat = np.fft.fft(f.values)
    return WaveField(f.grid, np.fft.ifft(fhat * np.exp(-1j * t * f.grid.xi**2)))


def evaluate_at(f: WaveField, points) -> np.ndarray:
    """Trigonometric-interpolant values at arbitrary points in [-L, L).

    Exact for band-limited fields; reproduces grid-node values to roundoff.
    Returns a complex array shaped like `points` (complex scalar for scalar in).
    """
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    fhat = np.fft.fft(f.values) / f.grid.n
    phase = np.exp(1j * np.outer(pts + f.grid.half_length, f.grid.xi))
    vals = phase @ fhat
    if np.isscalar(points) or np.ndim(points) == 0:
        return complex(vals[0])
    return vals


# --- serialization ---

_BIN_MAGIC = b"SNLSFLD1"


def save_field_csv(f: WaveField, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("x,re,im\n")
        for x, v in zip(f.grid.x, f.values):
            fh.write(f"{x:.17g},{v.real:.17g},{v.imag:.17g}\n")


def load_field_csv(path) -> WaveField:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    x = data[:, 0]
    n = len(x)
    half_length = -x[0]
    grid = Grid(half_length, n)
    if not np.allclose(grid.x, x, rtol=0, atol=1e-12 * max(1.0, half_length)):
        raise ValueError("CSV abscissae are not a uniform [-L, L) grid")
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
            raise ValueError("not a field binary file")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"field binary file {path} ends inside its header")
        half_length, n = struct.unpack("<dQ", header)
        raw = fh.read(16 * n)
    values = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    return WaveField(Grid(half_length, int(n)), values)

