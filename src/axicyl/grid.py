"""Annular-cylindrical grid and finite-difference operators.

Geometry: axisymmetric (r, z) slab [r_min, R] x [0, L_z) with r_min > 0
(the axis is never part of the domain).  Nodes are vertex-centered in r
(both walls are grid nodes) and periodic in z (the node z = L_z is the
same as z = 0 and is not stored).  Arrays are shaped (n_r, n_z) with
axis 0 radial and axis 1 axial.

All volume integrals carry the axisymmetric Jacobian 2*pi*r, so L^p
norms computed here are norms of the corresponding 3D axisymmetric
field.

Scalar elliptic operators, with Delta = d_rr + (1/r) d_r + d_zz:

    L0  f = Delta f - f / r^2          (swirl velocity operator)
    L1  f = Delta f - (2/r) d_r f      (swirl momentum operator)
    L0' f = Delta f - f / r^2          (vorticity operator; Dirichlet)

L0 and L0' differ only in the boundary condition they are paired with.
Their stencils, with the boundary rows, live in `elliptic`
(`EllipticSolver.apply_heat_operator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Invalid grid parameters."""


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered (r, z) grid, z-periodic.

    r[i] = r_min + i * h_r for i = 0 .. n_r - 1 (r[0] = r_min, r[-1] = R),
    z[j] = j * h_z for j = 0 .. n_z - 1 (z = L_z wraps to z = 0).
    """

    r_min: float
    R: float
    L_z: float
    n_r: int
    n_z: int
    h_r: float
    h_z: float
    r: np.ndarray
    z: np.ndarray

    @property
    def rcol(self) -> np.ndarray:
        """Radii as an (n_r, 1) column for broadcasting against fields."""
        return self.r[:, None]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_r, self.n_z)

    def same_geometry(self, other: "Grid") -> bool:
        return (
            self.n_r == other.n_r
            and self.n_z == other.n_z
            and math.isclose(self.r_min, other.r_min, rel_tol=0, abs_tol=1e-14)
            and math.isclose(self.R, other.R, rel_tol=0, abs_tol=1e-14)
            and math.isclose(self.L_z, other.L_z, rel_tol=0, abs_tol=1e-14)
        )


def build_grid(r_min: float, R: float, L_z: float, n_r: int, n_z: int) -> Grid:
    """Construct a grid, rejecting non-finite or out-of-range parameters."""
    for name, val in (("r_min", r_min), ("R", R), ("L_z", L_z)):
        if not np.isfinite(val):
            raise GridError(f"{name} must be finite, got {val!r}")
    if r_min <= 0:
        raise GridError(f"r_min must be positive (axis excluded), got {r_min}")
    if R <= r_min:
        raise GridError(f"R must exceed r_min, got R={R}, r_min={r_min}")
    if L_z <= 0:
        raise GridError(f"L_z must be positive, got {L_z}")
    if n_r < 4 or n_z < 4:
        raise GridError(f"need n_r >= 4 and n_z >= 4, got {n_r}, {n_z}")
    h_r = (R - r_min) / (n_r - 1)
    h_z = L_z / n_z
    r = r_min + h_r * np.arange(n_r)
    z = h_z * np.arange(n_z)
    return Grid(float(r_min), float(R), float(L_z), int(n_r), int(n_z), h_r, h_z, r, z)


def _values(f) -> np.ndarray:
    """Accept a bare array or anything exposing `.values` (ScalarField)."""
    return f.values if hasattr(f, "values") else np.asarray(f, dtype=float)


def radial_weights(grid: Grid) -> np.ndarray:
    """Trapezoidal weights in r (half weight at both walls)."""
    w = np.full(grid.n_r, grid.h_r)
    w[0] = 0.5 * grid.h_r
    w[-1] = 0.5 * grid.h_r
    return w


def weighted_integral(grid: Grid, f) -> float:
    """Integral of f over the domain with the cylindrical measure 2*pi*r dr dz.

    Trapezoid rule in r, rectangle rule in z (exact for periodic data).
    """
    vals = _values(f)
    if vals.shape != grid.shape:
        raise ValueError(f"field shape {vals.shape} does not match grid {grid.shape}")
    w = radial_weights(grid)
    return float(2.0 * np.pi * grid.h_z * np.sum((w * grid.r)[:, None] * vals))


def lp_norm(grid: Grid, f, p: float) -> float:
    """L^p norm under the cylindrical measure; p = inf gives the nodal max."""
    vals = _values(f)
    if p == np.inf or p == math.inf:
        return float(np.max(np.abs(vals))) if vals.size else 0.0
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf, got {p}")
    return float(weighted_integral(grid, np.abs(vals) ** p) ** (1.0 / p))


def ddz(grid: Grid, f) -> np.ndarray:
    """Centered d/dz, periodic wrap."""
    vals = _values(f)
    return (np.roll(vals, -1, axis=1) - np.roll(vals, 1, axis=1)) / (2.0 * grid.h_z)


def d2z(grid: Grid, f) -> np.ndarray:
    """Centered d2/dz2, periodic wrap."""
    vals = _values(f)
    return (np.roll(vals, -1, axis=1) - 2.0 * vals + np.roll(vals, 1, axis=1)) / grid.h_z**2


def ddr(grid: Grid, f) -> np.ndarray:
    """d/dr: centered in the interior, one-sided second order at the walls."""
    vals = _values(f)
    out = np.empty_like(vals)
    h = grid.h_r
    out[1:-1] = (vals[2:] - vals[:-2]) / (2.0 * h)
    out[0] = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    out[-1] = (3.0 * vals[-1] - 4.0 * vals[-2] + vals[-3]) / (2.0 * h)
    return out


def grad(grid: Grid, f) -> tuple[np.ndarray, np.ndarray]:
    """(d_r f, d_z f) with the stencils above."""
    return ddr(grid, f), ddz(grid, f)

