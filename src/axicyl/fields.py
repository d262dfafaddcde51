"""Field containers, velocity reconstruction, initial data, checkpoints.

The dynamical variables are the swirl momentum Gamma = r*u_theta and the
azimuthal vorticity omega; everything else (stream function psi and the
three velocity components) is derived:

    u_r = -(1/r) d_z psi,   u_z = (1/r) d_r psi,   u_theta = Gamma / r.

Boundary conditions at the inner wall r = r_min:

    Gamma : Robin  d_r Gamma = (2/r_min) Gamma   (slip, in momentum form)
    omega : Dirichlet 0
    psi   : Dirichlet 0 at both walls

and homogeneous Dirichlet for Gamma, omega, psi at the truncation
radius r = R.  The heat operators that advance Gamma and omega carry
these walls themselves (`elliptic.HEAT_WALLS`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Grid, build_grid, ddr, ddz, lp_norm, weighted_integral


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def norm(self, p: float) -> float:
        return lp_norm(self.grid, self.values, p)

    def integral(self) -> float:
        return weighted_integral(self.grid, self.values)


@dataclass
class AxisymState:
    """Dynamical pair (Gamma, omega) plus derived stream function and velocities."""

    t: float
    Gamma: ScalarField
    omega: ScalarField
    psi: ScalarField
    ur: ScalarField
    uth: ScalarField
    uz: ScalarField

    @property
    def grid(self) -> Grid:
        return self.Gamma.grid

    def copy(self) -> "AxisymState":
        return AxisymState(
            self.t,
            self.Gamma.copy(),
            self.omega.copy(),
            self.psi.copy(),
            self.ur.copy(),
            self.uth.copy(),
            self.uz.copy(),
        )

    def speed_squared(self) -> np.ndarray:
        return self.ur.values**2 + self.uth.values**2 + self.uz.values**2

    def kinetic_energy(self) -> float:
        return weighted_integral(self.grid, self.speed_squared())


def swirl_velocity(Gamma: ScalarField) -> ScalarField:
    """u_theta = Gamma / r (r_min > 0 so this is always well defined)."""
    return ScalarField(Gamma.grid, Gamma.values / Gamma.grid.rcol)


def velocity_from_stream(psi: ScalarField) -> tuple[ScalarField, ScalarField]:
    """(u_r, u_z) = (-(1/r) d_z psi, (1/r) d_r psi).

    With psi vanishing on both walls, u_r is exactly zero there and the
    discrete divergence d_r u_r + u_r/r + d_z u_z is O(h^2) pointwise.
    """
    g = psi.grid
    ur = -ddz(g, psi.values) / g.rcol
    uz = ddr(g, psi.values) / g.rcol
    ur[0, :] = 0.0
    ur[-1, :] = 0.0
    return ScalarField(g, ur), ScalarField(g, uz)


def azimuthal_vorticity_of(ur: ScalarField, uz: ScalarField) -> ScalarField:
    """omega = d_z u_r - d_r u_z, by centered differences."""
    g = ur.grid
    return ScalarField(g, ddz(g, ur.values) - ddr(g, uz.values))


def discrete_divergence(ur: ScalarField, uz: ScalarField) -> np.ndarray:
    g = ur.grid
    return ddr(g, ur.values) + ur.values / g.rcol + ddz(g, uz.values)


def bump_profile(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """C-infinity bump supported on (lo, hi), peak value 1 at the midpoint."""
    if hi <= lo:
        raise ValueError(f"bump support must have hi > lo, got [{lo}, {hi}]")
    s = (2.0 * np.asarray(x, dtype=float) - lo - hi) / (hi - lo)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    # exp(1) factor normalizes the peak to exactly 1
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def state_from_dynamic(
    grid: Grid, t: float, gamma_values: np.ndarray, omega_values: np.ndarray, solver=None
) -> AxisymState:
    """Assemble a full state from (Gamma, omega): solve for psi, derive velocities."""
    if solver is None:
        from .elliptic import EllipticSolver

        solver = EllipticSolver(grid)
    Gamma = ScalarField(grid, np.array(gamma_values, dtype=float))
    om = np.array(omega_values, dtype=float)
    om[0, :] = 0.0
    om[-1, :] = 0.0
    omega = ScalarField(grid, om)
    psi = solver.solve_stream(omega)
    ur, uz = velocity_from_stream(psi)
    uth = swirl_velocity(Gamma)
    return AxisymState(t, Gamma, omega, psi, ur, uth, uz)


def make_initial_data(
    grid: Grid,
    kind: str,
    amplitude: float = 1.0,
    r_support: tuple[float, float] | None = None,
    z_mode: int = 1,
    seed: int = 0,
    omega_amplitude: float | None = None,
    n_modes: int = 4,
    z_support: tuple[float, float] | None = None,
    solver=None,
) -> AxisymState:
    """Smooth compactly supported initial data with derived velocities.

    kinds: "no_swirl_bump" (Gamma = 0, single omega bump), "swirl_bump"
    (Gamma and omega bumps), "random_modes" (seeded sums of bump-times-
    Fourier-mode fields; deterministic given the seed).  An optional
    z_support window localizes the data in z as well (otherwise it fills
    the full period through Fourier modes).
    """
    if kind not in ("no_swirl_bump", "swirl_bump", "random_modes"):
        raise ValueError(f"unknown initial data kind {kind!r}")
    if r_support is None:
        width = grid.R - grid.r_min
        r_support = (grid.r_min + 0.15 * width, grid.r_min + 0.60 * width)
    lo, hi = r_support
    if not (grid.r_min < lo < hi < grid.R):
        raise ValueError(
            f"support [{lo}, {hi}] must lie strictly inside ({grid.r_min}, {grid.R})"
        )
    if z_support is not None:
        z_lo, z_hi = z_support
        if not (0.0 <= z_lo < z_hi <= grid.L_z):
            raise ValueError(f"z support [{z_lo}, {z_hi}] must lie inside [0, {grid.L_z})")
        zb = bump_profile(grid.z, z_lo, z_hi)[None, :]
    else:
        zb = np.ones((1, grid.n_z))
    if omega_amplitude is None:
        omega_amplitude = 0.5 * amplitude

    rb = bump_profile(grid.r, lo, hi)[:, None]
    kz = 2.0 * np.pi * z_mode / grid.L_z

    if kind == "no_swirl_bump":
        gamma = np.zeros(grid.shape)
        omega = omega_amplitude * rb * np.sin(kz * grid.z)[None, :] * zb
    elif kind == "swirl_bump":
        gamma = amplitude * rb * zb * np.ones(grid.shape)
        omega = omega_amplitude * rb * np.sin(kz * grid.z)[None, :] * zb
    else:
        rng = np.random.default_rng(seed)
        gamma = np.zeros(grid.shape)
        omega = np.zeros(grid.shape)
        for m in range(1, n_modes + 1):
            km = 2.0 * np.pi * m / grid.L_z
            ag, ao = rng.uniform(-1, 1, 2) / m**2
            pg, po = rng.uniform(0, 2 * np.pi, 2)
            gamma += amplitude * ag * rb * np.cos(km * grid.z + pg)[None, :]
            omega += omega_amplitude * ao * rb * np.cos(km * grid.z + po)[None, :]
        gamma *= zb
        omega *= zb

    return state_from_dynamic(grid, 0.0, gamma, omega, solver=solver)


# -- checkpoint format ------------------------------------------------------
#
# magic "AXNS" | version u32 | n_r u32 | n_z u32 | r_min f64 | R f64 |
# L_z f64 | t f64 | Gamma (n_r*n_z f64, row-major) | omega (same)
# All integers and floats little-endian.

CHECKPOINT_MAGIC = b"AXNS"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIIdddd")


class CheckpointError(IOError):
    """Malformed or mismatched checkpoint file."""


def checkpoint_save(state: AxisymState, path) -> None:
    g = state.grid
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, g.n_r, g.n_z, g.r_min, g.R, g.L_z, state.t
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.Gamma.values, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.omega.values, dtype="<f8").tobytes())


def checkpoint_load(path, grid: Grid | None = None, solver=None) -> AxisymState:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise CheckpointError(f"{path}: truncated header")
    magic, version, n_r, n_z, r_min, R, L_z, t = _HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + 2 * n_r * n_z * 8
    if len(raw) != expected:
        raise CheckpointError(f"{path}: payload size {len(raw)} != expected {expected}")
    file_grid = build_grid(r_min, R, L_z, n_r, n_z)
    if grid is not None:
        if not grid.same_geometry(file_grid):
            raise CheckpointError(
                f"{path}: checkpoint grid ({r_min}, {R}, {L_z}, {n_r}, {n_z}) "
                "does not match the target grid"
            )
        file_grid = grid
    count = n_r * n_z
    gamma = np.frombuffer(raw, dtype="<f8", count=count, offset=_HEADER.size)
    omega = np.frombuffer(raw, dtype="<f8", count=count, offset=_HEADER.size + count * 8)
    gamma = gamma.reshape(n_r, n_z).astype(float)
    omega = omega.reshape(n_r, n_z).astype(float)
    return state_from_dynamic(file_grid, t, gamma, omega, solver=solver)
