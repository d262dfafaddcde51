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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class GridError(ValueError):
    """Invalid grid parameters; `param` names the offending build_grid argument."""

    def __init__(self, param: str, message: str):
        super().__init__(f"{param} {message}")
        self.param = param
        self.message = message


class GridFactors(NamedTuple):
    """Constants of a grid that the coupled step and its ledger read every step.

    The field-shaped ones, (n_r, n_z) and read-only, multiply or divide
    fields: a same-shape operand costs numpy no broadcast buffer, which an
    (n_r, 1) column does on every call.  Each holds the value of the
    column expression it names, so a product or quotient with it is the one
    with the column, bit for bit.  The vectors (n_r,) weight rows' sums of
    squares: the quadrature quad (radial_quadrature) over r^2 for a term
    divided by r, and times (2 h)^-2 for the squares of raw differences
    (r_differences, z_differences).
    """

    r: np.ndarray  # r: the divisor of Gamma / r, u_r / r, omega / r
    ur_of_psi: np.ndarray  # -1 / (2 h_z r): u_r from psi's z-differences
    uz_of_psi: np.ndarray  # 1 / (2 h_r r): u_z from psi's r-differences
    swirl_feed: np.ndarray  # 1 / (2 h_z r^3): d_z(Gamma^2) / r^3 from Gamma^2's z-differences
    quad_r2: np.ndarray  # quad / r^2, quad = radial_quadrature
    quad_dr: np.ndarray  # quad / (2 h_r)^2
    quad_dz: np.ndarray  # quad / (2 h_z)^2
    quad_r2_dz: np.ndarray  # quad / (r^2 (2 h_z)^2)


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

    @functools.cached_property
    def factors(self) -> GridFactors:
        """The grid's per-step constants, built on first use."""
        r = self.rcol
        columns = (r, -0.5 / (self.h_z * r), 0.5 / (self.h_r * r), 0.5 / (self.h_z * r**3))
        fields = [np.repeat(col, self.n_z, axis=1) for col in columns]
        quad = radial_quadrature(self)
        quad_r2 = quad / self.r**2
        dr2, dz2 = (2.0 * self.h_r) ** 2, (2.0 * self.h_z) ** 2
        vectors = [quad_r2, quad / dr2, quad / dz2, quad_r2 / dz2]
        for a in fields + vectors:
            a.setflags(write=False)
        return GridFactors(*fields, *vectors)


def build_grid(r_min: float, R: float, L_z: float, n_r: int, n_z: int) -> Grid:
    """The grid of these parameters; GridError, naming the parameter, for
    non-finite or out-of-range values.  A run's grid is its config's
    (SolverConfig.grid), built once from the config's grid keys."""
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
    # every second difference divides by h^2, which must be a finite nonzero
    # float (h * h: h**2 past the float range raises OverflowError)
    h_r, h_z = float(R - r_min) / (n_r - 1), float(L_z) / n_z
    for name, spacing, h in (("R", "(R - r_min) / (n_r - 1)", h_r), ("L_z", "L_z / n_z", h_z)):
        h2 = h * h
        if h2 == 0 or not math.isfinite(1 / h2):
            raise GridError(name, f"too small: the spacing {spacing} = {h!r} has no finite 1/h^2")
        if not math.isfinite(h2):
            raise GridError(name, f"too large: the spacing {spacing} = {h!r} has no finite h^2")
    # Grid.factors divides by r^2 and r^3, largest at the wall r = r_min:
    # 1/r^2, 1/(h_z r^3) and quad/(r^2 (2 h_z)^2), quad = radial_quadrature
    r0 = np.float64(r_min)
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        quad = 2.0 * np.pi * h_z * (0.5 * h_r) * r0
        factors = (1.0 / r0**2, 1.0 / (h_z * r0**3), quad / r0**2 / (2.0 * h_z) ** 2)
    if not np.all(np.isfinite(factors)):
        raise GridError(
            "r_min",
            f"too small: {r_min!r} leaves 1/r_min^2, 1/(h_z r_min^3) or "
            "quad/(r_min^2 (2 h_z)^2) without a finite value",
        )
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
    """L^p norm under the cylindrical measure; p = inf gives the nodal max.

    A finite field whose weighted sum of |f|^p overflows (|f| above about
    1e51 at p = 6) is scaled by its sup first: sup|f| ||f / sup|f|||_p.
    Every other field's norm is the plain formula's, bit for bit.
    """
    if p == np.inf or p == math.inf:
        return float(np.max(np.abs(f))) if f.size else 0.0
    if p < 1:
        raise ValueError(f"lp_norm requires p >= 1 or p = inf, got {p}")
    with np.errstate(over="ignore"):
        plain = weighted_integral(grid, np.abs(f) ** p)
    if math.isfinite(plain) or not math.isfinite(sup := float(np.max(np.abs(f)))):
        return float(plain ** (1.0 / p))
    return sup * float(weighted_integral(grid, np.abs(f / sup) ** p) ** (1.0 / p))


def square(x: float) -> float:
    """x**2, or inf where that overflows: a float power raises OverflowError
    instead, and lp_norm's norm of a finite field may reach about 1e308."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def z_differences(f: np.ndarray) -> np.ndarray:
    """The raw centred differences f[j+1] - f[j-1] in z, periodic wrap: 2 h_z ddz.

    One subtraction over the flattened rows gives every interior column;
    it writes cross-row differences into the two wrap columns, which are
    then overwritten.
    """
    f = np.ascontiguousarray(f)
    out = np.empty_like(f)
    flat, o = f.reshape(-1), out.reshape(-1)
    np.subtract(flat[2:], flat[:-2], out=o[1:-1])
    np.subtract(f[:, 1], f[:, -1], out=out[:, 0])
    np.subtract(f[:, 0], f[:, -2], out=out[:, -1])
    return out


def ddz(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Centered d/dz, periodic wrap: the differences f[j+1] - f[j-1]
    (z_differences) divided by 2 h_z."""
    out = z_differences(f)
    out /= 2.0 * grid.h_z
    return out


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


def r_differences(f: np.ndarray) -> np.ndarray:
    """The raw differences of ddr, 2 h_r ddr: f[i+1] - f[i-1] inside, and
    (-3 f[0] + 4 f[1]) - f[2] and (3 f[-1] - 4 f[-2]) + f[-3] at the walls.

    f is a field (n_r, n_z), n_r >= 4.  The wall rows are built first, in
    place, with rows 1 and -2 as scratch until the interior fills them.
    """
    out = np.empty_like(f)
    lo, hi = out[0], out[-1]
    np.multiply(f[0], -3.0, out=lo)
    lo += np.multiply(f[1], 4.0, out=out[1])
    lo -= f[2]
    np.multiply(f[-1], 3.0, out=hi)
    hi -= np.multiply(f[-2], 4.0, out=out[-2])
    hi += f[-3]
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    return out


def ddr(grid: Grid, f: np.ndarray) -> np.ndarray:
    """d/dr: centered in the interior, one-sided second order at the walls,
    the differences r_differences divided by 2 h_r."""
    out = r_differences(f)
    out /= 2.0 * grid.h_r
    return out
