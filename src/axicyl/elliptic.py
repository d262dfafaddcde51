"""Stream-function solve and implicit scalar parabolic steps.

Everything here exploits z-periodicity: a real FFT in z turns both the
stream equation and the heat operators into independent tridiagonal
systems in r, one per z mode (cost O(n_r n_z log n_z), deterministic).

Stream equation (from omega = d_z u_r - d_r u_z with the stream-function
velocities):

    d_r((1/r) d_r psi) + (1/r) d_zz psi = -omega,
    psi(r_min, z) = psi(R, z) = 0,

discretized in divergence form with half-node coefficients.

Heat steps advance d_t f = B f for B in {L0, L1, L0'} by Crank-Nicolson
(default) or backward Euler.  Robin walls use second-order ghost
elimination: d_r f = alpha f at r_min gives f_ghost = f_1 - 2 h alpha f_0.
The outer wall is homogeneous Dirichlet for every operator (far-field
truncation).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import DIRICHLET0, BCKind, ScalarField, robin
from .grid import Grid, d2z, grad, lp_norm


class TridiagBatch:
    """M independent tridiagonal systems of size n, factored once.

    Coefficients are real; right-hand sides may be complex (z modes).
    Row i of system m couples to rows i-1 and i+1 through sub[m, i] and
    sup[m, i]; sub[:, 0] and sup[:, -1] are ignored.

    The Thomas elimination d_i = g_i + a_i d_{i-1} (g = rhs / denom) and
    the back substitution x_i = d_i + b_i x_{i+1} are both first-order
    linear recurrences.  Swept row by row they take 2n Python iterations
    of a few numpy calls on M-element columns, so solve() sweeps in two
    levels instead.  The rows are cut into B blocks of s ~ sqrt(n) rows
    (zero rows pad the last block); arrays stay row-major, (B*s, M), and
    are viewed as (s, B, M) blocks.  Each block's own contribution to its
    last row is a weighted sum of its g (one einsum, weights precomputed
    here), a pass over the B blocks carries the true value from block to
    block, and one sweep over the s rows of all blocks at once then gives
    d exactly; the back substitution is the same pass on the reversed
    rows.  That is O(sqrt(n)) numpy calls per solve.

    The (row, mode) order is that of the z-FFT output, so a right-hand
    side given as the transpose of a C-ordered (n, M) array, and the
    (M, n) transposed view solve() returns, need no transposing copy.  A
    complex right-hand side is swept as separate real and imaginary
    planes, so the real coefficients broadcast without a complex cast.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        self.M, self.n = M, n = diag.shape
        self.s = s = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) rows per block
        self.B = B = -(-n // s)
        inv_denom = np.empty((n, M))
        cp = np.zeros((B * s, M))  # (row, mode); zero rows pad n up to B*s
        sub, diag, sup = sub.T, diag.T, sup.T
        denom = diag[0]
        if np.any(np.abs(denom) < 1e-300):
            raise FloatingPointError("singular tridiagonal factorization")
        inv_denom[0] = 1.0 / denom
        cp[0] = sup[0] * inv_denom[0]
        for i in range(1, n):
            denom = diag[i] - sub[i] * cp[i - 1]
            if np.any(np.abs(denom) < 1e-300):
                raise FloatingPointError("singular tridiagonal factorization")
            inv_denom[i] = 1.0 / denom
            cp[i] = sup[i] * inv_denom[i]
        cp[n - 1] = 0.0  # sup[:, -1] is ignored
        fwd = np.zeros_like(cp)
        fwd[1:n] = -sub[1:] * inv_denom[1:]  # sub[:, 0] is ignored
        self._inv_denom = inv_denom
        fwd = _blocks(fwd, s)
        # the back substitution runs over the rows in reverse: both axes flipped
        bwd = _blocks(np.negative(cp, out=cp), s)[::-1, ::-1]
        self._elimination = (fwd, *_block_products(fwd))
        self._substitution = (bwd, *_block_products(bwd))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs for an (M, n) rhs; (M, n) in rhs's dtype, a transposed view."""
        n = self.n
        out = np.empty((n, self.M), dtype=rhs.dtype)
        if np.iscomplexobj(rhs):
            planes, out_planes = (rhs.T.real, rhs.T.imag), (out.real, out.imag)
        else:
            planes, out_planes = (rhs.T,), (out,)
        rows = np.empty((len(planes), self.B * self.s, self.M))
        for p, x in enumerate(planes):
            np.multiply(x, self._inv_denom, out=rows[p, :n])
        rows[:, n:] = 0.0
        w = _blocks(rows, self.s)
        _sweep(w, *self._elimination)
        _sweep(w[:, ::-1, ::-1], *self._substitution)
        for p, y in enumerate(out_planes):
            y[...] = rows[p, :n]
        return out.T


def _blocks(rows: np.ndarray, s: int) -> np.ndarray:
    """(..., B*s, M) rows as an (..., s, B, M) view: row i = k*s + j at [j, k]."""
    *lead, N, M = rows.shape
    return rows.reshape(*lead, N // s, s, M).swapaxes(-3, -2)


def _block_products(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products of the multipliers coef (s, B, M) within each block.

    Returns weights[j] = coef[j+1] ... coef[s-1], the factor by which row
    j's value reaches the block's last row, and the whole block's product.
    """
    weights = np.ones_like(coef)
    for j in range(coef.shape[0] - 2, -1, -1):
        np.multiply(weights[j + 1], coef[j + 1], out=weights[j])
    return weights, weights[0] * coef[0]


def _sweep(w: np.ndarray, coef: np.ndarray, weights: np.ndarray, span: np.ndarray) -> None:
    """y_i = w_i + coef_i y_{i-1} (y_{-1} = 0) in place over the rows of w (planes, s, B, M)."""
    s, B = coef.shape[:2]
    # the value each block hands on if it starts from zero, then the true
    # value entering each block, carried across the blocks
    ends = np.einsum("jkm,pjkm->kpm", weights, w)
    carry = np.empty_like(ends)
    carry[0] = 0.0
    for k in range(1, B):
        np.multiply(span[k - 1], carry[k - 1], out=carry[k])
        carry[k] += ends[k - 1]
    tmp = np.empty_like(w[:, 0])
    np.multiply(coef[0], carry.transpose(1, 0, 2), out=tmp)
    w[:, 0] += tmp
    for j in range(1, s):
        np.multiply(coef[j], w[:, j - 1], out=tmp)
        w[:, j] += tmp


HEAT_OPS = ("L0", "L1", "L0p")


def default_bc(op: str, grid: Grid) -> BCKind:
    """Inner-wall condition each operator generates its semigroup with."""
    if op == "L0":
        return robin(1.0 / grid.r_min)
    if op == "L1":
        return robin(2.0 / grid.r_min)
    if op == "L0p":
        return DIRICHLET0
    raise ValueError(f"unknown operator {op!r}")


def _radial_rows(grid: Grid, op: str, bc: BCKind):
    """Tridiagonal rows of the radial part of op over all n_r nodes.

    Dirichlet rows (outer wall always; inner wall when bc is dirichlet0)
    are zeroed; the caller treats those nodes as pinned to 0.
    Returns (sub, diag, sup, unknown_slice).
    """
    if op not in HEAT_OPS:
        raise ValueError(f"unknown operator {op!r}")
    n, h, r = grid.n_r, grid.h_r, grid.r
    sub = np.zeros(n)
    diag = np.zeros(n)
    sup = np.zeros(n)
    i = np.arange(1, n - 1)
    if op in ("L0", "L0p"):
        sub[i] = 1.0 / h**2 - 1.0 / (2 * h * r[i])
        diag[i] = -2.0 / h**2 - 1.0 / r[i] ** 2
        sup[i] = 1.0 / h**2 + 1.0 / (2 * h * r[i])
    else:  # L1
        sub[i] = 1.0 / h**2 + 1.0 / (2 * h * r[i])
        diag[i] = -2.0 / h**2
        sup[i] = 1.0 / h**2 - 1.0 / (2 * h * r[i])

    if bc.kind == "robin":
        a = bc.alpha
        r0 = r[0]
        if op in ("L0", "L0p"):
            diag[0] = -2.0 / h**2 - 2.0 * a / h + a / r0 - 1.0 / r0**2
        else:
            diag[0] = -2.0 / h**2 - 2.0 * a / h - a / r0
        sup[0] = 2.0 / h**2
        lo = 0
    elif bc.kind == "dirichlet0":
        lo = 1
    else:
        raise ValueError(f"heat operators need robin or dirichlet0 bc, got {bc.kind!r}")
    # outer wall: Dirichlet; drop the coupling of the last unknown row to it
    return sub, diag, sup, slice(lo, n - 1)


def _z_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues -lam_m of the periodic second difference, per rfft mode."""
    m = np.arange(grid.n_z // 2 + 1)
    return (2.0 - 2.0 * np.cos(2.0 * np.pi * m / grid.n_z)) / grid.h_z**2


class FitWindowError(ValueError):
    """The decay-fit window is empty, or too narrow to hold three time steps."""


@dataclass
class DecayFit:
    """Log-log least-squares fit of a sup-norm decay history."""

    exponent: float  # magnitude of the fitted slope
    stderr: float
    prefactor: float
    times: np.ndarray
    norms: np.ndarray


class EllipticSolver:
    """Per-grid factorizations for the stream solve and heat steps."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self._lam = _z_eigenvalues(grid)
        self._n_modes = grid.n_z // 2 + 1
        self._heat_cache: dict = {}

    # -- stream function ----------------------------------------------------

    @functools.cached_property
    def _stream(self) -> TridiagBatch:
        """The stream operator's factorization, built on the first stream solve."""
        g = self.grid
        h, r = g.h_r, g.r
        i = np.arange(1, g.n_r - 1)
        beta_minus = 1.0 / (r[i] - 0.5 * h)
        beta_plus = 1.0 / (r[i] + 0.5 * h)
        sub = (beta_minus / h**2)[None, :] * np.ones((self._n_modes, 1))
        sup = (beta_plus / h**2)[None, :] * np.ones((self._n_modes, 1))
        diag = -(beta_minus + beta_plus)[None, :] / h**2 - self._lam[:, None] / r[i][None, :]
        # first/last unknowns do not couple to the (zero) wall values
        sub = sub.copy()
        sup = sup.copy()
        sub[:, 0] = 0.0
        sup[:, -1] = 0.0
        return TridiagBatch(sub, diag, sup)

    def solve_stream(self, omega) -> ScalarField:
        """psi with psi = 0 on both walls and d_r((1/r)d_r psi)+(1/r)d_zz psi = -omega."""
        g = self.grid
        vals = omega.values if isinstance(omega, ScalarField) else np.asarray(omega, float)
        rhs_hat = np.fft.rfft(-vals[1:-1, :], axis=1).T  # (modes, interior)
        psi_hat = self._stream.solve(rhs_hat)
        psi = np.zeros(g.shape)
        psi[1:-1, :] = np.fft.irfft(psi_hat.T, n=g.n_z, axis=1)
        return ScalarField(g, psi, DIRICHLET0)

    def apply_stream_operator(self, psi) -> np.ndarray:
        """Discrete stream operator at interior rows (wall rows returned 0)."""
        g = self.grid
        vals = psi.values if isinstance(psi, ScalarField) else np.asarray(psi, float)
        h, r = g.h_r, g.rcol
        out = np.zeros(g.shape)
        beta_minus = 1.0 / (r[1:-1] - 0.5 * h)
        beta_plus = 1.0 / (r[1:-1] + 0.5 * h)
        out[1:-1] = (
            beta_plus * (vals[2:] - vals[1:-1]) - beta_minus * (vals[1:-1] - vals[:-2])
        ) / h**2 + d2z(g, vals)[1:-1] / r[1:-1]
        return out

    def stream_residual(self, psi, omega) -> float:
        """Relative residual of the discrete stream equation."""
        g = self.grid
        om = omega.values if isinstance(omega, ScalarField) else np.asarray(omega, float)
        res = self.apply_stream_operator(psi)[1:-1] + om[1:-1]
        scale = np.max(np.abs(om)) + 1e-300
        return float(np.max(np.abs(res)) / scale)

    # -- heat steps -----------------------------------------------------------

    def _heat_matrices(self, op: str, bc: BCKind, dt: float, scheme: str):
        key = (op, bc.kind, round(bc.alpha, 14), round(dt, 16), scheme)
        hit = self._heat_cache.get(key)
        if hit is not None:
            return hit
        g = self.grid
        sub, diag, sup, unk = _radial_rows(g, op, bc)
        s, d, u = sub[unk], diag[unk], sup[unk]
        n = d.size
        lam = self._lam[:, None]
        ones = np.ones((self._n_modes, n))
        theta = dt if scheme == "be" else 0.5 * dt
        lhs = TridiagBatch(
            -theta * s * ones, 1.0 - theta * (d[None, :] - lam), -theta * u * ones
        )
        entry = (lhs, (sub, diag, sup, unk), theta if scheme == "cn" else 0.0)
        if len(self._heat_cache) > 16:
            self._heat_cache.clear()
        self._heat_cache[key] = entry
        return entry

    def heat_step(self, f, dt: float, op: str, scheme: str = "cn", bc: BCKind | None = None):
        """One unconditionally stable implicit step of d_t f = op f."""
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if scheme not in ("cn", "be"):
            raise ValueError(f"scheme must be 'cn' or 'be', got {scheme!r}")
        g = self.grid
        is_field = isinstance(f, ScalarField)
        vals = f.values if is_field else np.asarray(f, float)
        if bc is None:
            bc = f.bc if (is_field and f.bc.kind != "none") else default_bc(op, g)
        lhs, (sub, diag, sup, unk), theta = self._heat_matrices(op, bc, dt, scheme)
        fhat = np.fft.rfft(vals, axis=1).T  # (modes, n_r)
        sel = fhat[:, unk]
        if theta > 0.0:
            # banded (I + theta*B) f, assembled mode-wise; wall values are
            # zero so the first/last unknown rows have no extra coupling
            bf = diag[unk][None, :] * sel - self._lam[:, None] * sel
            bf[:, 1:] += sub[unk][None, 1:] * sel[:, :-1]
            bf[:, :-1] += sup[unk][None, :-1] * sel[:, 1:]
            rhs = sel + theta * bf
        else:
            rhs = sel
        out_hat = np.zeros_like(fhat)
        out_hat[:, unk] = lhs.solve(rhs)
        out = np.fft.irfft(out_hat.T, n=g.n_z, axis=1)
        if unk.start == 1:
            out[0, :] = 0.0
        out[-1, :] = 0.0
        if is_field:
            return ScalarField(g, out, bc)
        return out

    def apply_heat_operator(self, f, op: str, bc: BCKind | None = None) -> np.ndarray:
        """Explicit, boundary-aware application of op (Dirichlet rows map to 0)."""
        g = self.grid
        vals = f.values if isinstance(f, ScalarField) else np.asarray(f, float)
        if bc is None:
            bc = default_bc(op, g)
        sub, diag, sup, unk = _radial_rows(g, op, bc)
        out = diag[:, None] * vals
        out[1:] += sub[1:, None] * vals[:-1]
        out[:-1] += sup[:-1, None] * vals[1:]
        zz = d2z(g, vals)
        out[unk] += zz[unk]
        if unk.start == 1:
            out[0, :] = 0.0
        out[-1, :] = 0.0
        return out

    def explicit_stability_bound(self, op: str, bc: BCKind | None = None) -> float:
        """Largest dt with 1 + dt*diag >= 0 for every row (monotone explicit step)."""
        g = self.grid
        if bc is None:
            bc = default_bc(op, g)
        _, diag, _, unk = _radial_rows(g, op, bc)
        worst = np.max(-diag[unk]) + 2.0 / g.h_z**2
        return 1.0 / worst


# -- semigroup decay experiments ----------------------------------------------


def _smoothstep(s: np.ndarray) -> np.ndarray:
    """Quintic C^2 ramp from 1 at s=0 to 0 at s=1."""
    s = np.clip(s, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def power_spike(
    grid: Grid,
    p: float,
    center: tuple[float, float],
    core_cells: float = 4.0,
    envelope: tuple[float, float] | None = None,
) -> np.ndarray:
    """Spike with the L^p-critical profile rho^(-3/p), normalized to ||f||_p = 1.

    The evolved sup norm of this profile decays self-similarly like
    t^(-3/(2p)) (and its gradient like t^(-3/(2p)-1/2)); for p = inf the
    profile degenerates to a constant plateau.  Cells within core_cells
    of the center carry cell averages of the singular profile so the
    discrete core mass matches the continuum; a C^2 envelope
    (1 inside rho <= rho1, 0 beyond rho2) keeps the slowly decaying tail
    away from the truncation walls.
    """
    r0, z0 = center
    a = 0.0 if math.isinf(p) else 3.0 / p
    dz_abs = np.abs(grid.z - z0)
    dz_per = np.minimum(dz_abs, grid.L_z - dz_abs)
    dr = grid.rcol - r0
    rho = np.hypot(dr, dz_per[None, :])
    if a == 0.0:
        vals = np.ones(grid.shape)
    else:
        with np.errstate(over="ignore", divide="ignore"):
            vals = np.maximum(rho, 1e-300) ** (-a)
        # cell averages near the singularity (midpoint subsampling); this
        # overwrites the overflowed node at rho = 0, if any
        h = max(grid.h_r, grid.h_z)
        idx = np.argwhere(rho < core_cells * h)
        m = 24
        off = (np.arange(m) + 0.5) / m - 0.5
        ox, oy = np.meshgrid(off * grid.h_r, off * grid.h_z, indexing="ij")
        for i, j in idx:
            sx = dr[i, 0] + ox
            sy = dz_per[j] + oy
            vals[i, j] = float(np.mean(np.hypot(sx, sy) ** (-a)))
    if envelope is not None:
        rho1, rho2 = envelope
        vals = vals * _smoothstep((rho - rho1) / (rho2 - rho1))
    return vals / lp_norm(grid, vals, p)


def default_fit_window(grid: Grid, center: tuple[float, float], dt: float) -> tuple[float, float]:
    """[25 dt, (d/3)^2] with d the distance from the spike to any boundary."""
    r0, _ = center
    dist = min(r0 - grid.r_min, grid.R - r0, grid.L_z / 2.0)
    return 25.0 * dt, (dist / 3.0) ** 2


def _decay_series(
    solver: EllipticSolver,
    op: str,
    f0: np.ndarray,
    ks: tuple[int, ...],
    t_window: tuple[float, float],
    dt: float,
    bc: BCKind | None,
    scheme: str,
    n_samples: int,
    mask: np.ndarray | None,
):
    """One evolution of f0 recording masked sup norms for every k in ks."""
    t0, t1 = t_window
    if not (0 < t0 < t1):
        raise FitWindowError(f"bad fit window [{t0}, {t1}]")
    for k in ks:
        if k not in (0, 1):
            raise ValueError(f"k must be 0 or 1, got {k}")
    grid = solver.grid
    steps = np.unique(np.rint(np.geomspace(t0, t1, n_samples) / dt).astype(int))
    steps = steps[steps >= 1]
    if steps.size < 3:
        raise FitWindowError("fit window too narrow for the given dt")
    f = np.array(f0, dtype=float)
    times: list[float] = []
    norms: dict[int, list[float]] = {k: [] for k in ks}
    target = set(steps.tolist())
    for n in range(1, int(steps[-1]) + 1):
        f = solver.heat_step(f, dt, op, scheme=scheme, bc=bc)
        if n in target:
            times.append(n * dt)
            for k in ks:
                if k == 0:
                    field = np.abs(f)
                else:
                    fr, fz = grad(grid, f)
                    field = np.hypot(fr, fz)
                norms[k].append(float(np.max(field[mask] if mask is not None else field)))
    return np.array(times), {k: np.array(v) for k, v in norms.items()}


def _loglog_fit(times: np.ndarray, norms: np.ndarray) -> tuple[float, float, float]:
    """(slope magnitude, slope stderr, prefactor) of a power-law fit."""
    x = np.log(times)
    y = np.log(np.maximum(norms, 1e-300))
    n = x.size
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = np.sum((x - xm) * (y - ym)) / sxx
    resid = y - (ym + slope * (x - xm))
    stderr = math.sqrt(np.sum(resid**2) / max(n - 2, 1) / sxx)
    return -slope, stderr, math.exp(ym - slope * xm)


def semigroup_decay_fit(
    solver: EllipticSolver,
    op: str,
    f0: np.ndarray,
    p: float,
    k: int,
    t_window: tuple[float, float],
    dt: float,
    bc: BCKind | None = None,
    scheme: str = "cn",
    n_samples: int = 24,
    mask: np.ndarray | None = None,
) -> DecayFit:
    """Fitted decay exponent of ||d^k e^(t B) f0||_inf over the window.

    Least squares on log-norm versus log-time; the exponent is the slope
    magnitude, for comparison with 3/(2p) + k/2.  An optional boolean
    mask restricts the sup to a subdomain (used to keep the fit clear of
    the artificial truncation walls).
    """
    times, norms = _decay_series(solver, op, f0, (k,), t_window, dt, bc, scheme, n_samples, mask)
    exponent, stderr, prefactor = _loglog_fit(times, norms[k])
    return DecayFit(exponent, stderr, prefactor, times, norms[k])


@dataclass
class SemigroupCase:
    """One (operator, p, k) decay-rate measurement against 3/(2p) + k/2."""

    op: str
    p: float
    k: int
    target: float
    fitted: float
    stderr: float
    prefactor: float


DEFAULT_SEMIGROUP_CASES: tuple[tuple[str, float, int], ...] = tuple(
    (op, p, k) for op in HEAT_OPS for (p, k) in ((2.0, 0), (6.0, 0), (6.0, 1), (math.inf, 0))
)


def semigroup_experiment(
    n: int = 385,
    dt: float = 1.0 / 300.0,
    r_min: float = 1.0,
    R: float = 17.0,
    L_z: float = 16.0,
    center: tuple[float, float] = (9.0, 8.0),
    envelope: tuple[float, float] = (5.0, 7.0),
    cases: tuple[tuple[str, float, int], ...] = DEFAULT_SEMIGROUP_CASES,
    n_samples: int = 24,
) -> list[SemigroupCase]:
    """Run the decay-rate harness over (op, p, k) cases.

    The sup is taken over the core disc rho <= rho1/2, where the spike
    agrees with the scale-invariant profile; outside it the truncating
    envelope and walls contaminate the power law.  Cases sharing
    (op, p) reuse a single evolution.
    """
    from .grid import build_grid

    grid = build_grid(r_min, R, L_z, n, n - 1)
    solver = EllipticSolver(grid)
    rho1, rho2 = envelope
    r0, z0 = center
    dz_abs = np.abs(grid.z - z0)
    dz_per = np.minimum(dz_abs, grid.L_z - dz_abs)
    rho = np.hypot(grid.rcol - r0, dz_per[None, :])
    mask = rho <= 0.5 * rho1
    h = max(grid.h_r, grid.h_z)
    window = (max(25.0 * dt, 12.0 * (2.0 * h) ** 2), (rho1 / 4.0) ** 2)

    grouped: dict[tuple[str, float], list[int]] = {}
    for op, p, k in cases:
        grouped.setdefault((op, p), []).append(k)
    results: list[SemigroupCase] = []
    for (op, p), ks in grouped.items():
        f0 = power_spike(grid, p, center, envelope=envelope)
        times, norms = _decay_series(
            solver, op, f0, tuple(sorted(set(ks))), window, dt, None, "cn", n_samples, mask
        )
        for k in ks:
            fitted, stderr, prefactor = _loglog_fit(times, norms[k])
            target = (0.0 if math.isinf(p) else 3.0 / (2.0 * p)) + 0.5 * k
            results.append(SemigroupCase(op, p, k, target, fitted, stderr, prefactor))
    return results


def commutation_check(
    solver: EllipticSolver, gamma0: np.ndarray, t: float, dt: float, scheme: str = "cn"
) -> float:
    """sup |r e^(t L0) g - e^(t L1) (r g)| with matched Robin pairs and steps."""
    grid = solver.grid
    n = int(round(t / dt)) if t > 0 else 0
    small = np.array(gamma0, dtype=float)
    big = grid.rcol * small
    for _ in range(n):
        small = solver.heat_step(small, dt, "L0", scheme=scheme, bc=robin(1.0 / grid.r_min))
        big = solver.heat_step(big, dt, "L1", scheme=scheme, bc=robin(2.0 / grid.r_min))
    return float(np.max(np.abs(grid.rcol * small - big)))
