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
    "InterpolationPoints",
    "interpolation_points",
    "evaluate_at",
    "hat_moments",
    "HatPairing",
    "hat_pairing",
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

    @cached_property
    def xi_squared(self) -> np.ndarray:
        """xi^2, the multiplier of the free flight and the kinetic energy."""
        return _readonly(self.xi**2)

    def sobolev_weights(self, s: float) -> np.ndarray:
        """(1 + xi^2)^s; for s = 1 and s = -1, the weights of the recorded
        H^1 and H^-1 norms, kept on the grid from their first use."""
        if s not in (1.0, -1.0):
            return (1.0 + self.xi_squared) ** s
        kept = self.__dict__.setdefault("_sobolev_weights", {})
        if s not in kept:
            kept[s] = _readonly((1.0 + self.xi_squared) ** s)
        return kept[s]


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
    weight = f.grid.sobolev_weights(s)
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
    return WaveField(f.grid, np.fft.ifft(
        f.spectrum * np.exp(-1j * t * f.grid.xi_squared)))


def _trig_tables(half_length: float, k: int, first: int,
                 points) -> tuple[np.ndarray, np.ndarray]:
    """The power tables that ``_trig_sum`` reads for K = k coefficients from
    z^first at each point x, z = exp(i pi (x + L) / L): ``low`` holds z^b
    for b < B and ``high`` z^(first + aB) for a < K/B, B about sqrt(K).
    Both are running products of three exponentials per point, so M points
    cost O(M sqrt(K)) products instead of M K exponentials."""
    b = 1 << (k.bit_length() // 2)
    s = (np.asarray(points, dtype=float).ravel() + half_length) * (np.pi / half_length)
    low = _powers(np.exp(1j * s), b)
    high = _powers(np.exp(1j * b * s), k // b) * np.exp(1j * first * s)[:, None]
    return _readonly(low), _readonly(high)


def _trig_sum(coeffs: np.ndarray, low: np.ndarray,
              high: np.ndarray) -> np.ndarray:
    """sum_j coeffs_j z^(first + j) at each point of prebuilt
    ``_trig_tables`` for K coefficients, K a power of two.

    The phase factors as z^(first + aB + b) = z^first (z^B)^a z^b, so each
    point costs one small (1 x B) by (B x K/B) product, and tables built once
    serve every coefficient vector at the same points.  The products stay
    per point: one (M x B) by (B x K/B) product is large enough for BLAS to
    spread over threads, whose wake-up costs more than the product here (on
    a 2-core host the default solve took 190 ms with it against 180 ms per
    point, medians of 11 alternating runs).
    """
    b = low.shape[1]
    terms = (low[:, None, :] @ coeffs.reshape(-1, b).T)[:, 0]
    return np.sum(np.multiply(high, terms, out=terms), axis=1)


def _powers(z: np.ndarray, count: int) -> np.ndarray:
    """z^0 .. z^(count-1) for each entry of z, one row per entry."""
    out = np.empty((z.size, count), dtype=np.complex128)
    out[:, 0] = 1.0
    out[:, 1:] = z[:, None]
    return np.cumprod(out, axis=1)


@dataclass(frozen=True, eq=False)
class InterpolationPoints:
    """Points with the ``_trig_tables`` that ``evaluate_at`` reads there on
    one grid, built once for points that serve many fields."""

    grid: Grid
    low: np.ndarray
    high: np.ndarray


def interpolation_points(grid: Grid, points) -> InterpolationPoints:
    """The points' tables for the grid's N coefficients from frequency index
    -N/2, after their b + N/b <= 3 sqrt(N) entries per point pass the size
    rule."""
    n = grid.n
    checked_size("interpolation entries (points x trig-sum terms)",
                 np.size(points) * 3 * n**0.5, MAX_ENTRIES)
    return InterpolationPoints(grid, *_trig_tables(grid.half_length, n,
                                                   -(n // 2), points))


def evaluate_at(f: WaveField, points: InterpolationPoints) -> np.ndarray:
    """Trigonometric-interpolant values at points in [-L, L).

    Exact for band-limited fields; reproduces grid-node values to roundoff.
    ``points`` are the positions' ``interpolation_points`` on f's grid; a
    field on another grid is a ValueError.  Returns a 1-d complex array, one
    value per point.
    """
    if points.grid != f.grid:
        raise ValueError("interpolation points belong to another grid")
    coeffs = np.fft.fftshift(f.spectrum)
    coeffs /= f.grid.n
    return _trig_sum(coeffs, points.low, points.high)


def _hat_points(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The hat moments' integers ks = floor(-L) .. ceil(L) and the hat ends
    xs = ks[0] - 1 .. ks[-1] + 1 clipped to [-L, L], once the trig-sum
    tables over xs pass the size rule."""
    half_length = grid.half_length
    # b + N/b <= 3 sqrt(N) table entries at each of <= 2L + 5 points
    checked_size("hat-moment entries (points x trig-sum terms)",
                 (2 * float(half_length) + 5) * 3 * grid.n**0.5, MAX_ENTRIES)
    ks = np.arange(np.floor(-half_length), np.ceil(half_length) + 1)
    xs = np.clip(np.arange(ks[0] - 1, ks[-1] + 2), -half_length, half_length)
    return ks, xs


def _hat_theta(grid: Grid) -> np.ndarray:
    """theta_d = pi d / L for d = 0 .. N-1, with theta_0 = inf, which drops
    d = 0 from the sums over 1 / theta_d."""
    theta = (np.pi / grid.half_length) * np.arange(grid.n)
    theta[0] = np.inf
    return theta


def _square_coefficients(f: WaveField) -> np.ndarray:
    """2N g_d for d = 0 .. N-1, where |p|^2 = sum_{|d| < N} g_d e_d for the
    trigonometric interpolant p of f and e_d = exp(i theta_d (x + L)).

    |p|^2 has frequencies |d| <= N - 1, so its coefficients come alias-free
    from the 2N-point grid; it is real, so g_-d = conj(g_d) and d >= 0
    suffices.
    """
    n = f.grid.n
    fhat = f.spectrum
    p = np.zeros(2 * n, dtype=np.complex128)
    p[: n // 2] = fhat[: n // 2]
    p[-(n // 2):] = fhat[n // 2:]
    np.fft.ifft(p, out=p)
    p *= 2.0
    # squared in place and freed before the rFFT: one 2N buffer at a time
    np.square(p.real, out=p.real)
    np.square(p.imag, out=p.imag)
    square = p.real + p.imag
    del p
    return np.fft.rfft(square)[:n]


def hat_moments(f: WaveField) -> tuple[np.ndarray, np.ndarray]:
    """Integers k and h_k = int_{-L}^{L} |p|^2 hat(x - k) dx for the
    trigonometric interpolant p of f, hat(t) = max(0, 1 - |t|).

    Every k whose hat meets (-L, L) is listed, so sum_k h_k = ||f||^2 and any
    piecewise-linear w with nodes at the integers pairs exactly:
    int |p|^2 w = sum_k w(k) h_k.  With the coefficients g_d of |p|^2
    (``_square_coefficients``) and the antiderivatives
    G = g_0 x + sum_{d != 0} g_d e_d / (i theta_d) and
    H = g_0 x^2 / 2 - sum_{d != 0} g_d e_d / theta_d^2, each hat integral is
    a second difference of H over its support clipped to [-L, L], plus
    one-sided G terms where it is clipped; exact for any L, integer or not.
    This forward map builds its trig-sum tables on each call; one set of
    weights paired with many fields is ``hat_pairing``.
    """
    n, half_length = f.grid.n, f.grid.half_length
    ks, xs = _hat_points(f.grid)
    # keep d = 0 .. N-1 and double d > 0
    g = _square_coefficients(f) / (2 * n)
    g0 = g[0].real
    theta = _hat_theta(f.grid)
    # at x = -L and x = L every e_d is 1, so G there needs no evaluation
    g_end = 2.0 * float(np.sum(g.imag / theta))
    hx = 0.5 * g0 * xs**2 - 2.0 * _trig_sum(
        g / theta**2, *_trig_tables(half_length, n, 0, xs)).real
    # G terms have zero coefficients unless the point is clipped to +-L,
    # where g0 x + g_end is exact
    gx = g0 * xs + g_end
    a, b, d = slice(None, -2), slice(1, -1), slice(2, None)
    h = (hx[a] - 2.0 * hx[b] + hx[d] + 2.0 * gx[b] * (xs[b] - ks)
         - gx[a] * (xs[a] - ks + 1.0) + gx[d] * (ks + 1.0 - xs[d]))
    return ks.astype(np.int64), h


@dataclass(frozen=True, eq=False)
class HatPairing:
    """A ``hat_pairing`` functional on one grid: its coefficients of the
    interleaved real and imaginary parts of ``_square_coefficients``."""

    grid: Grid
    coefficients: np.ndarray

    def __call__(self, f: WaveField) -> float:
        """sum_k w_k h_k(f) from one 2N-point IFFT, one rFFT and one dot
        product."""
        if f.grid != self.grid:
            raise ValueError("the pairing belongs to another grid")
        return float(self.coefficients
                     @ _square_coefficients(f).view(np.float64))


def hat_pairing(grid: Grid, weight_at) -> HatPairing:
    """The functional f -> sum_k w_k h_k(f), w_k = weight_at(k) at the
    integers k of ``hat_moments``, built once for a grid and its weights.

    The hat moments are a fixed linear map of the coefficients g_d of |p|^2,
    so the pairing is one real-linear functional of them,

        alpha g_0 + sum_{d >= 1} (A_d Re g_d + B_d Im g_d),

    the adjoint of ``hat_moments``.  Carried back through h's second
    differences and clipped G terms, the weights become u and v at the hat
    ends xs: sum_k w_k h_k = sum_j (u_j H(x_j) + v_j G(x_j)).  Then
    alpha = u . xs^2 / 2 + v . xs, A_d = -2 Re S_d / theta_d^2 and
    B_d = 2 Im S_d / theta_d^2 + 2 (sum_j v_j) / theta_d, where
    S_d = sum_j u_j z_j^d is the adjoint of the trig sum over xs: one
    (N/B x P) by (P x B) product of its tables.
    """
    n = grid.n
    ks, xs = _hat_points(grid)
    w = np.asarray(weight_at(ks.astype(np.int64)), dtype=float)
    a, b, d = slice(None, -2), slice(1, -1), slice(2, None)
    u, v = np.zeros(xs.size), np.zeros(xs.size)
    u[a] += w
    u[b] -= 2.0 * w
    u[d] += w
    v[b] += 2.0 * w * (xs[b] - ks)
    v[a] -= w * (xs[a] - ks + 1.0)
    v[d] += w * (ks + 1.0 - xs[d])
    low, high = _trig_tables(grid.half_length, n, 0, xs)
    # einsum's own loops, not BLAS: a threaded GEMM here, taken once per
    # run, would add OpenBLAS's thread buffers, about 0.7 MiB of peak RSS
    s = np.einsum("ma,mb->ab", u[:, None] * high, low).ravel()
    theta = _hat_theta(grid)
    coefficients = np.empty((n, 2))
    coefficients[:, 0] = -2.0 * s.real / theta**2
    coefficients[:, 1] = 2.0 * s.imag / theta**2 + 2.0 * float(np.sum(v)) / theta
    coefficients[0, 0] = 0.5 * float(u @ xs**2) + float(v @ xs)
    # _square_coefficients gives 2N g_d
    return HatPairing(grid, _readonly(coefficients.ravel() / (2 * n)))


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

