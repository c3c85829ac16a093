"""Mollified densities and truncated potentials on the solver grid.

An atomic measure is smeared by the width-eps bump kernel.  The kernel is
sampled on the grid and each atom's samples are renormalized to carry exactly
the atom's mass (conservative deposition).  Only atoms in the closed domain
[-L, L] are deposited, the rule the quartic diagnostic uses, so the grid
integral of the density equals the mass of those atoms to float precision at
every admissible resolution.  The potential used by the regularized flow is
either the density itself ("mollified_only") or the density multiplied by the
smooth plateau that is 1 on [-1/eps, 1/eps] and vanishes beyond 2/eps
("fully_truncated").
"""
from __future__ import annotations

import numpy as np

from .bump import bump_scaled, cutoff
from .errors import ConfigError, ResolutionError
from .field import Grid, GriddedDensity
from .point_process import AtomicMeasure

__all__ = [
    "VARIANTS",
    "check_resolution",
    "mollified_density",
    "truncated_potential",
]

VARIANTS = ("fully_truncated", "mollified_only")


def check_resolution(grid: Grid, eps: float) -> None:
    """Reject a width outside (0, 1] (ConfigError) and grids with fewer than
    four points across the kernel support (ResolutionError).

    Quadrature quality degrades gracefully down to that point (relative mass
    error of the raw sampled kernel is ~2e-4 at dx = eps/8 and ~5e-3 at
    dx = eps/2); below it the sampled kernel can miss atoms entirely.
    """
    if not (0.0 < eps <= 1.0):
        raise ConfigError("eps must lie in (0, 1]")
    if grid.dx > eps / 2:
        raise ResolutionError(
            f"grid spacing {grid.dx:.6g} exceeds eps/2 = {eps / 2:.6g}; "
            "refine the grid or increase eps")


def mollified_density(mu: AtomicMeasure, grid: Grid, eps: float) -> GriddedDensity:
    """Width-eps mollification of an atomic measure, sampled on the grid:
    per-atom deposition of the sampled bump kernel, renormalized to the
    atom's exact mass, for the atoms in [-L, L]; an atom outside the domain
    (a window wider than the grid) deposits nothing.  A density that
    overflows is refused by GriddedDensity's finiteness check."""
    check_resolution(grid, eps)
    values = np.zeros(grid.n)
    L, dx, n = grid.half_length, grid.dx, grid.n
    with np.errstate(over="ignore", invalid="ignore"):
        for y, mass in zip(mu.positions, mu.masses):
            if not -L <= y <= L:
                continue
            i0 = max(0, int(np.ceil((y - eps + L) / dx)))
            i1 = min(n - 1, int(np.floor((y + eps + L) / dx)))
            if i1 < i0:
                continue
            xs = -L + dx * np.arange(i0, i1 + 1)
            k = bump_scaled(xs - y, eps)
            s = k.sum() * dx
            if s <= 0.0:
                continue
            values[i0:i1 + 1] += (mass / s) * k
    return GriddedDensity(grid, values)


def truncated_potential(mu: AtomicMeasure, grid: Grid, eps: float,
                        variant: str) -> GriddedDensity:
    """Potential for the regularized flow; non-negative by construction.  An
    unknown variant raises ConfigError."""
    if variant not in VARIANTS:
        raise ConfigError(f"variant must be one of {VARIANTS}")
    dens = mollified_density(mu, grid, eps)
    if variant == "mollified_only":
        return dens
    return GriddedDensity(grid, dens.values * cutoff(grid.x, eps))
