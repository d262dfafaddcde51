"""The flow state, velocity reconstruction, initial data, checkpoints.

The dynamical variables are the swirl momentum Gamma = r*u_theta and the
azimuthal vorticity omega; the three velocity components are derived,
u_r and u_z through the stream function psi:

    u_r = -(1/r) d_z psi,   u_z = (1/r) d_r psi,   u_theta = Gamma / r.

Boundary conditions at the inner wall r = r_min:

    Gamma : Robin  d_r Gamma = (2/r_min) Gamma   (slip, in momentum form)
    omega : Dirichlet 0
    psi   : Dirichlet 0 at both walls

and homogeneous Dirichlet for Gamma, omega, psi at the truncation
radius r = R.  These walls are stated once, in the operator table
`elliptic.OPERATORS` (L1 for Gamma, L0' for omega, the stream operator
for psi).

A state is built from (Gamma, omega) by state_from_dynamic, for the
initial data, every step of the coupled run and of Picard's iterates,
and a loaded checkpoint alike.  psi lives only inside that call: the
state keeps Gamma, omega, u_r and u_z, the fields the next step reads,
and derives u_theta = Gamma / r once, when it is first read.  Its
construction checks each kept field once, and that pass leaves the
fields' sup norms on the state (AxisymState.sup) for the blow-up
threshold, the records and the CFL bound.  Every interior psi node
enters some u_r or u_z difference, so a non-finite psi fails that check
as u_r or u_z.

make_initial_data reads the init.* keys straight from a
config.SolverConfig: their defaults are that dataclass's fields and
nowhere else, and data that cannot be built raises a ConfigError naming
the keys at fault.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, SolverConfig
from .elliptic import EllipticSolver, pin
from .grid import Grid, build_grid, r_differences, weighted_integral, z_differences


# the fields a state keeps, dynamical then derived
STATE_FIELDS = ("Gamma", "omega", "ur", "uz")


@dataclass
class AxisymState:
    """Dynamical pair (Gamma, omega), the derived velocities, and the
    solver that derived them (its grid is the state's).

    Every kept field is a float array of the grid's shape with finite
    values; construction checks this in one max and one min reduction per
    field, which also give the fields' sup norms max|f|, by name, as sup.
    u_theta = Gamma / r is finite too: |Gamma / r| <= sup|Gamma| / r_min,
    which construction checks, as r >= r_min > 0.
    """

    t: float
    solver: EllipticSolver
    Gamma: np.ndarray
    omega: np.ndarray
    ur: np.ndarray
    uz: np.ndarray
    sup: dict[str, float] = field(init=False)

    def __post_init__(self):
        shape = self.grid.shape
        self.sup = {}
        for name in STATE_FIELDS:
            vals = np.asarray(getattr(self, name), dtype=float)
            if vals.shape != shape:
                raise ValueError(f"{name} shape {vals.shape} does not match grid {shape}")
            hi, lo = abs(float(vals.max())), abs(float(vals.min()))
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise ValueError(f"{name} contains non-finite values")
            self.sup[name] = max(hi, lo)
            setattr(self, name, vals)
        if not math.isfinite(self.sup["Gamma"] / self.grid.r_min):
            raise ValueError("uth contains non-finite values")

    @property
    def grid(self) -> Grid:
        return self.solver.grid

    @functools.cached_property
    def uth(self) -> np.ndarray:
        """u_theta = Gamma / r, computed when first read."""
        return self.Gamma / self.grid.factors.r

    def kinetic_energy(self) -> float:
        return weighted_integral(self.grid, self.ur**2 + self.uth**2 + self.uz**2)


def velocity_from_stream(grid: Grid, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u_r, u_z) = (-(1/r) d_z psi, (1/r) d_r psi).

    With psi vanishing on both walls, u_r is exactly zero there and the
    discrete divergence d_r u_r + u_r/r + d_z u_z is O(h^2) pointwise.
    Each component is psi's raw differences times one of the grid's
    factors, -1/(2 h_z r) and 1/(2 h_r r) (Grid.factors).
    """
    ur = z_differences(psi)
    ur *= grid.factors.ur_of_psi
    uz = r_differences(psi)
    uz *= grid.factors.uz_of_psi
    return pin(ur, "stream"), uz


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
    solver: EllipticSolver,
    t: float,
    gamma: np.ndarray,
    omega: np.ndarray,
    omega_hat: np.ndarray | None = None,
) -> AxisymState:
    """Assemble a full state from (Gamma, omega): solve for psi, derive
    velocities from it, and keep the velocities.

    The state holds copies of gamma and omega, with omega's wall rows set
    to zero (its Dirichlet walls).  A caller that
    holds omega's spectrum on L0''s rows passes it as omega_hat, and the
    stream solve starts from it (solve_stream).  Non-finite fields raise
    ValueError (AxisymState).
    """
    gamma = np.array(gamma, dtype=float)
    om = pin(np.array(omega, dtype=float), "L0p")
    psi = solver.solve_stream(om, omega_hat)
    ur, uz = velocity_from_stream(solver.grid, psi)
    return AxisymState(t, solver, gamma, om, ur, uz)


def make_initial_data(solver: EllipticSolver, cfg: SolverConfig) -> AxisymState:
    """Smooth compactly supported initial data of cfg's init keys on the
    solver's grid (cfg's grid keys are not read).

    init.kind: "no_swirl_bump" (Gamma = 0, single omega bump), "swirl_bump"
    (Gamma and omega bumps), "random_modes" (seeded sums of bump-times-
    Fourier-mode fields; deterministic given init.seed).  An optional
    init.z_lo/z_hi window localizes the data in z as well (otherwise it
    fills the full period through Fourier modes).  Data that cannot be
    built on the grid is a ConfigError naming its keys: a support given by
    one end or outside the grid, an init.z_mode (bump kinds) or
    init.n_modes (random_modes) past the grid's Nyquist index n_z // 2 (a
    higher mode aliases onto a lower one), or amplitudes whose derived
    fields overflow.
    """
    for lo_key, hi_key in (("r_lo", "r_hi"), ("z_lo", "z_hi")):
        if (getattr(cfg, lo_key) is None) != (getattr(cfg, hi_key) is None):
            raise ConfigError(f"init.{lo_key} and init.{hi_key} must be given together")
    grid = solver.grid
    nyquist = grid.n_z // 2
    key = "n_modes" if cfg.init_kind == "random_modes" else "z_mode"
    if abs(getattr(cfg, key)) > nyquist:
        raise ConfigError(f"init.{key}: must not exceed the Nyquist index n_z // 2 = {nyquist}")
    if cfg.r_lo is None:
        width = grid.R - grid.r_min
        lo, hi = grid.r_min + 0.15 * width, grid.r_min + 0.60 * width
    else:
        lo, hi = cfg.r_lo, cfg.r_hi
    if not (grid.r_min < lo < hi < grid.R):
        raise ConfigError(
            f"init.r_lo and init.r_hi: [{lo}, {hi}] must lie strictly inside "
            f"({grid.r_min}, {grid.R})"
        )
    if cfg.z_lo is None:
        zb = np.ones((1, grid.n_z))
    elif 0.0 <= cfg.z_lo < cfg.z_hi <= grid.L_z:
        zb = bump_profile(grid.z, cfg.z_lo, cfg.z_hi)[None, :]
    else:
        raise ConfigError(
            f"init.z_lo and init.z_hi: [{cfg.z_lo}, {cfg.z_hi}] must lie inside [0, {grid.L_z}]"
        )
    amplitude = cfg.amplitude
    omega_amplitude = 0.5 * amplitude if cfg.omega_amplitude is None else cfg.omega_amplitude

    rb = bump_profile(grid.r, lo, hi)[:, None]

    if cfg.init_kind != "random_modes":
        kz = 2.0 * np.pi * cfg.z_mode / grid.L_z
        if cfg.init_kind == "no_swirl_bump":
            gamma = np.zeros(grid.shape)
        else:
            gamma = amplitude * rb * zb * np.ones(grid.shape)
        omega = omega_amplitude * rb * np.sin(kz * grid.z)[None, :] * zb
    else:
        rng = np.random.default_rng(cfg.seed)
        gamma = np.zeros(grid.shape)
        omega = np.zeros(grid.shape)
        for m in range(1, cfg.n_modes + 1):
            km = 2.0 * np.pi * m / grid.L_z
            ag, ao = rng.uniform(-1, 1, 2) / m**2
            pg, po = rng.uniform(0, 2 * np.pi, 2)
            gamma += amplitude * ag * rb * np.cos(km * grid.z + pg)[None, :]
            omega += omega_amplitude * ao * rb * np.cos(km * grid.z + po)[None, :]
        gamma *= zb
        omega *= zb

    try:
        return state_from_dynamic(solver, 0.0, gamma, omega)
    except ValueError as exc:  # a derived field overflowed
        raise ConfigError(f"init.amplitude and init.omega_amplitude: {exc}") from exc


# -- checkpoint format ------------------------------------------------------
#
# magic "AXNS" | version u32 | n_r u32 | n_z u32 | r_min f64 | R f64 |
# L_z f64 | t f64 | Gamma (n_r*n_z f64, row-major) | omega (same)
# All integers and floats little-endian.

CHECKPOINT_MAGIC = b"AXNS"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<4sIIIdddd")


class CheckpointError(IOError):
    """Malformed checkpoint file."""


def checkpoint_save(state: AxisymState, path) -> None:
    g = state.grid
    header = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, g.n_r, g.n_z, g.r_min, g.R, g.L_z, state.t
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(state.Gamma, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.omega, dtype="<f8").tobytes())


def checkpoint_load(path) -> AxisymState:
    """The state a checkpoint holds, on a solver of the file's own grid.

    A file that does not hold a finite state on a valid grid raises
    CheckpointError.
    """
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
    if not math.isfinite(t):
        raise CheckpointError(f"{path}: time {t!r} is not finite")
    count = n_r * n_z
    gamma = np.frombuffer(raw, dtype="<f8", count=count, offset=_HEADER.size)
    omega = np.frombuffer(raw, dtype="<f8", count=count, offset=_HEADER.size + count * 8)
    try:
        solver = EllipticSolver(build_grid(r_min, R, L_z, n_r, n_z))
        return state_from_dynamic(solver, t, gamma.reshape(n_r, n_z), omega.reshape(n_r, n_z))
    except (ValueError, ArithmeticError) as exc:
        # a bad grid (GridError), non-finite data, or a grid the solver cannot handle
        raise CheckpointError(f"{path}: {exc}") from exc
