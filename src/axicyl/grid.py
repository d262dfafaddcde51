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
Their stencils and walls, and the stream operator's, live in one table,
`elliptic.OPERATORS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Invalid grid parameters; `param` names the offending build_grid argument."""

    def __init__(self, param: str, message: str):
        super().__init__(f"{param} {message}")
        self.param = param
        self.message = message


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


def check_grid(r_min: float, R: float, L_z: float, n_r: int, n_z: int) -> None:
    """Raise GridError, naming the parameter, for non-finite or out-of-range values."""
    for name, val in (("r_min", r_min), ("R", R), ("L_z", L_z)):
        if not np.isfinite(val):
            raise GridError(name, f"must be finite, got {val!r}")
    if r_min <= 0:
        raise GridError("r_min", f"must be positive (axis excluded), got {r_min}")
    if R <= r_min:
        raise GridError("R", f"must exceed r_min, got R={R}, r_min={r_min}")
    if L_z <= 0:
        raise GridError("L_z", f"must be positive, got {L_z}")
    for name, n in (("n_r", n_r), ("n_z", n_z)):
        if n < 4:
            raise GridError(name, f"must be >= 4, got {n}")


def build_grid(r_min: float, R: float, L_z: float, n_r: int, n_z: int) -> Grid:
    """Construct a grid, rejecting non-finite or out-of-range parameters."""
    check_grid(r_min, R, L_z, n_r, n_z)
    h_r = (R - r_min) / (n_r - 1)
    h_z = L_z / n_z
    r = r_min + h_r * np.arange(n_r)
    z = h_z * np.arange(n_z)
    return Grid(float(r_min), float(R), float(L_z), int(n_r), int(n_z), h_r, h_z, r, z)


def radial_weights(grid: Grid) -> np.ndarray:
    """Trapezoidal weights in r (half weight at both walls)."""
    w = np.full(grid.n_r, grid.h_r)
    w[0] = 0.5 * grid.h_r
    w[-1] = 0.5 * grid.h_r
    return w


def radial_quadrature(grid: Grid) -> np.ndarray:
    """q with weighted_integral(grid, f) = sum_i q_i sum_j f_ij, up to rounding.

    2*pi*h_z times the trapezoid weight times r: the quadrature of a field
    from its row sums, for callers that form those sums directly.
    """
    return 2.0 * np.pi * grid.h_z * radial_weights(grid) * grid.r


def weighted_integral(grid: Grid, f: np.ndarray) -> float:
    """Integral of f over the domain with the cylindrical measure 2*pi*r dr dz.

    Trapezoid rule in r, rectangle rule in z (exact for periodic data).
    """
    if f.shape != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape}")
    w = radial_weights(grid)
    return float(2.0 * np.pi * grid.h_z * np.sum((w * grid.r)[:, None] * f))


def lp_norm(grid: Grid, f: np.ndarray, p: float) -> float:
    """L^p norm under the cylindrical measure; p = inf gives the nodal max."""
    if p == np.inf or p == math.inf:
        return float(np.max(np.abs(f))) if f.size else 0.0
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf, got {p}")
    return float(weighted_integral(grid, np.abs(f) ** p) ** (1.0 / p))


def ddz(grid: Grid, f: np.ndarray, factor: float | np.ndarray | None = None) -> np.ndarray:
    """Centered d/dz, periodic wrap.

    One subtraction over the flattened rows gives every interior column;
    it writes cross-row differences into the two wrap columns, which are
    then overwritten.  The differences f[j+1] - f[j-1] are divided by
    2 h_z, or, when factor (a scalar or an array broadcasting against f)
    is given, multiplied by it instead: a caller that scales the
    derivative folds 1/(2 h_z) into factor and saves a pass.
    """
    f = np.ascontiguousarray(f)
    out = np.empty_like(f)
    flat, o = f.reshape(-1), out.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out=o[1:-1])
    np.subtract(f[:, 1], f[:, -1], out=out[:, 0])
    np.subtract(f[:, 0], f[:, -2], out=out[:, -1])
    return _scale_differences(out, grid.h_z, factor)


def d2z(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Centered d2/dz2, periodic wrap: ((f[j+1] - 2 f[j]) + f[j-1]) / h_z^2.

    The interior columns come from flat passes as in ddz; the two wrap
    columns are then overwritten.
    """
    f = np.ascontiguousarray(f)
    out = np.empty_like(f)
    flat, o = f.reshape(-1), out.reshape(-1)
    mid = o[1:-1]
    np.multiply(flat[1:-1], 2.0, out=mid)
    np.subtract(flat[2:], mid, out=mid)
    mid += flat[:-2]
    out[:, 0] = (f[:, 1] - 2.0 * f[:, 0]) + f[:, -1]
    out[:, -1] = (f[:, 0] - 2.0 * f[:, -1]) + f[:, -2]
    out /= grid.h_z**2
    return out


def ddr(grid: Grid, f: np.ndarray, factor: float | np.ndarray | None = None) -> np.ndarray:
    """d/dr: centered in the interior, one-sided second order at the walls.

    The differences are divided by 2 h_r, or multiplied by factor when it
    is given, as in ddz.
    """
    out = np.empty_like(f)
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[0] = -3.0 * f[0] + 4.0 * f[1] - f[2]
    out[-1] = 3.0 * f[-1] - 4.0 * f[-2] + f[-3]
    return _scale_differences(out, grid.h_r, factor)


def _scale_differences(diff: np.ndarray, h: float, factor: float | np.ndarray | None) -> np.ndarray:
    """diff / (2 h) in place, or diff * factor for a given factor."""
    if factor is None:
        diff /= 2.0 * h
    else:
        diff *= factor
    return diff


def grad(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d_r f, d_z f) with the stencils above."""
    return ddr(grid, f), ddz(grid, f)

