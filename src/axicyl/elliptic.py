"""Stream-function solve and implicit scalar parabolic steps.

Everything here exploits z-periodicity: a real FFT in z turns both the
stream equation and the heat operators into independent tridiagonal
systems in r, one per z mode (cost O(n_r n_z log n_z), deterministic);
the heat operators' systems also share one radial eigenbasis (below).

Stream equation (from omega = d_z u_r - d_r u_z with the stream-function
velocities):

    d_r((1/r) d_r psi) + (1/r) d_zz psi = -omega,
    psi(r_min, z) = psi(R, z) = 0,

discretized in divergence form with half-node coefficients.

Heat steps advance d_t f = B f for B in {L0, L1, L0'} by Crank-Nicolson:
with A = I - (dt/2) B, f' = A^-1 (I + (dt/2) B) f = 2 A^-1 f - f, so a
step is one solve with A/2, whose solution is 2 A^-1 f, and one
subtraction.

One table, OPERATORS, knows each operator (L0, L1, L0' and the stream
operator): its radial stencil, its inner wall (the slip condition's:
Robin d_r u = u/r_min for L0 (u_theta), Robin d_r Gamma = (2/r_min) Gamma
for L1 (Gamma = r u_theta), Dirichlet for L0' (omega) and for psi) and
its d_zz weight.  The outer wall is Dirichlet for all (far-field
truncation).  The factorizations of a I + b B (stream: a = 0, b = -1;
CN: a = 1/2, b = -dt/4), the heat operators' radial eigenbases, the
explicit apply and the pinned rows (pin) all come from it.

The heat steps work on z spectra, not mesh fields:

    fhat = solver.spectrum(f, op)     # rfft in z, once
    solver.heat_step(fhat, dt, op)    # in place, as often as needed
    f = solver.field(fhat, op)        # irfft in z, when a field is read

and the stream solve is field(solve(spectrum(omega))) on the same path,
with the factorization of -S, S the stream operator.
L0' and the stream operator solve for the same rows, so the stream solve
can also start from omega's spectrum on L0''s rows: the coupled step
(evolution._strang_heun) carries the spectra of (Gamma, omega) from one
half-diffusion to the next and hands its omega spectrum straight to
solve_stream, skipping an irfft -> rfft round trip each time.
A spectrum holds only op's unknown rows: every row but the outer wall,
and but the inner wall too when op's wall is Dirichlet (L0', stream).  Those
pinned rows are not stored; field() sets them to 0.  Its layout is the
tridiagonal kernel's: an (s, B, 2 M) float array, M = n_z//2 + 1, whose
row j of block k is radial unknown k*s + j (zero rows pad the last
block) with each mode's real and imaginary parts side by side
(TridiagBatch).  spectrum() and field() return new arrays the caller
owns; heat_step overwrites the caller's spectrum and returns it.  The
factorization cached per (op, dt) owns every buffer a step uses (the
work rows of its sweeps and the per-block carries), so a step after the
first allocates nothing.  One solver must therefore not be stepped from
two threads at once.

A heat operator's z shift is -lam_m I on every row (d_zz weight 1), so
one radial eigenbasis diagonalizes all its z modes at once (the fast
diagonalization method of Lynch, Rice & Thomas, Numer. Math. 6, 1964):
its radial rows, symmetrized by a diagonal similarity, go through
np.linalg.eigh once per (grid, op).  In that basis a CN step is one
elementwise product with the gains (1 + dt mu/2) / (1 - dt mu/2), so a
spectrum has a second layout, the modal one:

    c = solver.modes(f, op)           # rfft, then D^-1, then Q^T: (n, 2 M)
    solver.heat_step(c, dt, op)       # in place: one np.multiply
    f = solver.field(c, op)           # Q, then D, then irfft

heat_step and field take either layout, told apart by its shape.  The
transforms are dense products, O(n_r^2 n_z) against the rfft's
O(n_r n_z log n_z), so each layout serves its own callers.  The
heat-only evolutions (_decay_series, commutation_check) step hundreds of
times with one (op, dt) and read a field only at their sample times:
they run in the modal layout, where a step streams two arrays instead of
a two-level sweep's.  A decay sample reads back only the row band of its
mask (_field_rows, of which field() is the band of all rows): the
product with those rows of D Q and their irfft, a third of the field's
for the semigroup harness's core disc.  Its sups are taken on the mask's
bounding box in that band (the masked columns and a halo column on each
side, or all columns when the mask reaches a z end, where d_z wraps
around), and sup |grad f| calls hypot only at the nodes whose squared
magnitude is within 1e-12 of the largest, which bounds the largest
hypot; every node goes through hypot when that square is not finite or
lies below 2^-900 (_gradient_sup).  The coupled step reads a field
after every half-step and hands omega's z spectrum to the stream solve,
whose operator has no such basis (its d_zz is divided by r); at 129^2
one dense transform costs more than the whole solve, so it stays in the
block layout.  A dense product's bits may depend on the BLAS build, its
thread count and its row count (a band's rows may differ from the whole
field's in the last bit), so the modal results are reproducible for a
fixed BLAS, thread count and mask; the block layout's are not affected.
The gains of each (op, dt) are checked once against the tridiagonal step
on two z modes (_check_gains): the eigenbasis loses accuracy as the
similarity grows ill-conditioned, which h_r near 2 r on a hand-built
grid brings about.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .grid import Grid, build_grid, d2z, ddr, ddz, lp_norm


@functools.lru_cache(maxsize=64)
def _block_order(n: int) -> tuple[int, int, np.ndarray]:
    """(s, B, pos) for n rows cut into B blocks of s ~ sqrt(n) rows.

    Row i = k*s + j sits at block position pos[i] = j*B + k, so row j of
    every block is one contiguous run; the B*s - n positions no row maps to
    are zero padding.
    """
    s = math.isqrt(n - 1) + 1  # ceil(sqrt(n)) rows per block
    B = -(-n // s)
    i = np.arange(n)
    pos = (i % s) * B + i // s
    pos.setflags(write=False)
    return s, B, pos


def _to_blocks(rows: np.ndarray) -> np.ndarray:
    """Rows (n, X) in block order: a new (s, B, X) array, zero padded."""
    n, X = rows.shape
    s, B, pos = _block_order(n)
    out = np.empty((s * B, X))
    out[pos] = rows
    out = out.reshape(s, B, X)
    out[n - (B - 1) * s :, -1] = 0.0  # the last block's pad rows
    return out


def _from_blocks(blocks: np.ndarray, n: int) -> np.ndarray:
    """The n rows (n, X) of a block-order array (s, B, X): a new array."""
    return blocks.reshape(-1, blocks.shape[-1])[_block_order(n)[2]]


class TridiagBatch:
    """M independent tridiagonal systems of size n, factored once.

    Coefficients and right-hand sides are real: a right-hand side holds
    the z modes' real and imaginary parts (s, B, 2M), as below.  Row i
    of system m couples to rows i-1 and i+1 through sub[m, i] and
    sup[m, i]; sub[:, 0] and sup[:, -1] are ignored.

    The Thomas elimination d_i = g_i + a_i d_{i-1} (g = rhs / denom) and
    the back substitution x_i = d_i + b_i x_{i+1} are both first-order
    linear recurrences.  Swept row by row they take 2n Python iterations
    of a few numpy calls on M-element columns, so solve() sweeps in two
    levels instead.  The rows are cut into B blocks of s ~ sqrt(n) rows
    (_block_order).  Each block's own contribution to its last row is a
    weighted sum of its g (one einsum, weights precomputed here), a pass
    over the B blocks carries the true value from block to block, and one
    sweep over the s rows of all blocks at once then gives d exactly; the
    back substitution is the same pass over the rows in reverse.  That is
    O(sqrt(n)) numpy calls per solve.  Every view those calls read and
    write is made here, once (_sweep_plan), so a solve does no slicing.

    Right-hand sides and solutions are (s, B, 2M) float arrays in block
    order (_to_blocks): row i = k*s + j at [j, k], its modes' real and
    imaginary parts side by side.  Every coefficient array is stored in
    that layout too, duplicated for the two parts, so each numpy call of a
    sweep reads and writes whole contiguous runs and needs no buffer.
    """

    def __init__(self, sub: np.ndarray, diag: np.ndarray, sup: np.ndarray):
        self.M, self.n = M, n = diag.shape
        s, B, _ = _block_order(n)
        denom, inv_denom, cp = np.empty((3, n, M))
        sub, diag, sup = sub.T, diag.T, sup.T
        # a pivot under 1e-300 makes the rows after it inf or nan; the one
        # check after the loop still finds that pivot, and errstate keeps the
        # division by it quiet
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            denom[0] = diag[0]
            np.divide(1.0, denom[0], out=inv_denom[0])
            np.multiply(sup[0], inv_denom[0], out=cp[0])
            for i in range(1, n):
                d = np.multiply(sub[i], cp[i - 1], out=denom[i])
                np.subtract(diag[i], d, out=d)
                np.divide(1.0, d, out=inv_denom[i])
                np.multiply(sup[i], inv_denom[i], out=cp[i])
        if np.any(np.abs(denom) < 1e-300):
            raise FloatingPointError("singular tridiagonal factorization")
        cp[n - 1] = 0.0  # sup[:, -1] is ignored
        fwd = np.zeros_like(cp)
        fwd[1:] = -sub[1:] * inv_denom[1:]  # sub[:, 0] is ignored

        def blocks(coef):  # per-mode coefficients, duplicated for the two parts
            return _to_blocks(np.repeat(coef, 2, axis=1))

        self._scale = blocks(inv_denom)
        # the work rows, and the per-block scratch both sweeps share
        self.work = w = np.zeros((s, B, 2 * M))
        ends, tmp = np.empty((B, 2 * M)), np.empty((B, 2 * M))
        # the elimination, then the back substitution over the rows in reverse
        bwd = blocks(np.negative(cp, out=cp))[::-1]
        self._plans = (
            _sweep_plan(w, blocks(fwd), 1, ends, tmp),
            _sweep_plan(w[::-1], bwd, -1, ends, tmp),
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with A x = rhs, both (s, B, 2M) in block order; allocates nothing.

        x is the work array, overwritten by the next solve; rhs is not
        modified.
        """
        w = self.work
        # rhs / denom; zero scale on the pad rows keeps them zero
        np.multiply(rhs, self._scale, out=w)
        for weights, rows, ends, carries, steps, tmp in self._plans:
            # the value each block hands on if it starts from zero, then the
            # true value entering each block, carried across the blocks
            np.einsum("jx,jx->x", weights, rows, out=ends)
            for span, prev, cur, end in carries:
                np.multiply(span, prev, out=cur)
                cur += end
            for coef, prev, cur in steps:
                np.multiply(coef, prev, out=tmp)
                cur += tmp
        return w


def _block_products(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products of the multipliers coef (s, B, X) within each block, in sweep order.

    Returns weights[j] = coef[j+1] ... coef[s-1], the factor by which row
    j's value reaches the block's last row, and the whole block's product.
    """
    weights = np.ones(coef.shape)
    for j in range(coef.shape[0] - 2, -1, -1):
        np.multiply(weights[j + 1], coef[j + 1], out=weights[j])
    return weights, weights[0] * coef[0]


def _sweep_plan(w, coef, step, ends, tmp) -> tuple:
    """y_j = w_j + coef_j y_(j-1), in place over the rows j of w's blocks (s, B, X), as views.

    The value entering each block is carried from the block before it:
    k - 1 for step = 1, k + 1 for step = -1.  The plan is (weights, rows,
    ends, carries, steps, tmp): the end-value einsum's operands and output,
    the carry pass (span[k-1], carry[k-1], carry[k], ends[k-1]) in sweep
    order, the row sweep (coef[j], y[j-1], y[j]) starting from the carry,
    and tmp.  ends and tmp (B, X) are scratch; the carry is the plan's
    own, and its first block's entry stays 0.
    """
    s, B, X = w.shape
    weights, span = _block_products(coef)
    carry = np.zeros((B, X))
    c, e, sp = carry[::step], ends[::step], span[::step]
    carries = tuple(zip(sp[:-1], c[:-1], c[1:], e[:-1]))
    steps = tuple(zip(coef, (carry, *w[:-1]), w))
    return weights.reshape(s, -1), w.reshape(s, -1), ends.reshape(-1), carries, steps, tmp


@dataclass(frozen=True)
class Operator:
    """One row of the operator table: a radial stencil, its inner wall, and
    whether d_zz is divided by r."""

    stencil: str  # "L0": d_rr + (1/r) d_r - 1/r^2; "L1": d_rr - (1/r) d_r; "stream": d_r((1/r) d_r)
    wall: float | None  # inner wall: Robin d_r f = (wall / r_min) f, homogeneous Dirichlet for None
    zz_over_r: bool = False


# The operator table, the one place that knows an operator's stencil and
# walls.  The inner walls are those the slip condition gives each unknown;
# the outer (truncation) wall is homogeneous Dirichlet for every operator.
OPERATORS: dict[str, Operator] = {
    "L0": Operator("L0", 1.0),  # u_theta
    "L1": Operator("L1", 2.0),  # Gamma = r u_theta
    "L0p": Operator("L0", None),  # omega
    "stream": Operator("stream", None, zz_over_r=True),  # psi
}

# the operators that generate the heat semigroups e^(tL0), e^(tL1), e^(tL0')
HEAT_OPERATORS = ("L0", "L1", "L0p")


def _unknown_rows(grid: Grid, op: str) -> slice:
    """The radial rows op solves for: all but its Dirichlet walls.

    The outer wall is always pinned to 0; the inner wall too when op's wall
    is Dirichlet.
    """
    if op not in OPERATORS:
        raise ValueError(f"unknown operator {op!r}")
    return slice(1 if OPERATORS[op].wall is None else 0, grid.n_r - 1)


def pin(f: np.ndarray, op: str) -> np.ndarray:
    """f (n_r, ...) with the rows op does not solve for (_unknown_rows) set to zero, in place."""
    f[-1] = 0.0
    if OPERATORS[op].wall is None:
        f[0] = 0.0
    return f


def _radial_rows(grid: Grid, op: str):
    """op's tridiagonal radial rows over all n_r nodes, and the weight dividing d_zz.

    Robin walls use second-order ghost elimination: d_r f = a f at r_min
    gives f_ghost = f_1 - 2 h a f_0.  The rows op does not solve for are
    zero.  Returns (sub, diag, sup, zz_weight, unknown_slice).
    """
    unk = _unknown_rows(grid, op)
    spec = OPERATORS[op]
    n, h, r = grid.n_r, grid.h_r, grid.r
    sub, diag, sup = np.zeros((3, n))
    i = np.arange(1, n - 1)
    if spec.stencil == "L0":
        sub[i] = 1.0 / h**2 - 1.0 / (2 * h * r[i])
        diag[i] = -2.0 / h**2 - 1.0 / r[i] ** 2
        sup[i] = 1.0 / h**2 + 1.0 / (2 * h * r[i])
    elif spec.stencil == "L1":
        sub[i] = 1.0 / h**2 + 1.0 / (2 * h * r[i])
        diag[i] = -2.0 / h**2
        sup[i] = 1.0 / h**2 - 1.0 / (2 * h * r[i])
    else:  # stream: divergence form with half-node coefficients
        beta_minus = 1.0 / (r[i] - 0.5 * h)
        beta_plus = 1.0 / (r[i] + 0.5 * h)
        sub[i] = beta_minus / h**2
        diag[i] = -(beta_minus + beta_plus) / h**2
        sup[i] = beta_plus / h**2

    if spec.wall is not None:
        a = spec.wall / grid.r_min
        r0 = r[0]
        if spec.stencil == "L0":
            diag[0] = -2.0 / h**2 - 2.0 * a / h + a / r0 - 1.0 / r0**2
        else:  # L1
            diag[0] = -2.0 / h**2 - 2.0 * a / h - a / r0
        sup[0] = 2.0 / h**2
    return sub, diag, sup, (r if spec.zz_over_r else np.ones(n)), unk


def _z_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues -lam_m of the periodic second difference, per rfft mode."""
    m = np.arange(grid.n_z // 2 + 1)
    return (2.0 - 2.0 * np.cos(2.0 * np.pi * m / grid.n_z)) / grid.h_z**2


class FitWindowError(ValueError):
    """The decay-fit window is empty, or too narrow to hold three time steps."""


class EllipticSolver:
    """Per-grid factorizations for the stream solve and heat steps."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self._lam = _z_eigenvalues(grid)
        # per (op, dt, modal): the CN gains (modal) or the factorization of A/2
        self._heat_cache: dict[tuple[str, float, bool], TridiagBatch | np.ndarray] = {}
        self._bases: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # plain counters: CN steps; factorizations built (a TridiagBatch or a
        # radial eigenbasis); conversions between a field and either layout
        self.counts = {"heat_steps": 0, "factorizations": 0, "transforms": 0}

    def _factor(self, op: str, a: float, b: float, lam: np.ndarray) -> TridiagBatch:
        """The factorization of a I + b B over op's unknown rows, one system per lam_m.

        B is op's radial rows with -lam_m / w on the diagonal, w the
        weight dividing d_zz (a division, so w = 1 is exact); lam holds the
        z modes' lam_m (_z_eigenvalues), all of them or a few.
        """
        sub, diag, sup, w, unk = _radial_rows(self.grid, op)
        ones = np.ones((lam.size, 1))
        modes = diag[unk][None, :] - lam[:, None] / w[unk][None, :]
        self.counts["factorizations"] += 1
        return TridiagBatch(b * sub[unk] * ones, a + b * modes, b * sup[unk] * ones)

    # -- stream function ----------------------------------------------------

    @functools.cached_property
    def _stream(self) -> TridiagBatch:
        """The factorization of -S, S the stream operator, built on the first
        stream solve.

        Negating a matrix negates every pivot exactly and leaves the
        multipliers as they are, so this is S's factorization with its
        scale 1/denom negated, and its solve of omega is S's solve of
        -omega bit for bit (every step of a solve is a product or a sum,
        and rounding is symmetric in sign): psi, without a negation pass.
        """
        return self._factor("stream", 0.0, -1.0, self._lam)

    def solve_stream(self, omega: np.ndarray, omega_hat: np.ndarray | None = None) -> np.ndarray:
        """psi with psi = 0 on both walls and d_r((1/r)d_r psi)+(1/r)d_zz psi = -omega.

        omega_hat, when the caller holds it, is omega's spectrum on L0''s
        rows (spectrum(omega, "L0p")), which are the stream operator's: the
        solve starts from it, without an rfft, and does not modify it.  The
        solve is -S's (_stream), so its solution is psi's spectrum.
        """
        if omega_hat is None:
            omega_hat = self.spectrum(omega, "stream")
        return self.field(self._stream.solve(omega_hat), "stream")

    # -- heat steps -----------------------------------------------------------

    def _basis(self, op: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Q, d, lam): heat operator op's radial eigenbasis, built on first use and cached.

        op's radial rows T over its unknown rows are similar to the symmetric
        S = D^-1 T D, D = diag(d) with d_0 = 1 and d_(i+1)/d_i =
        sqrt(sub_(i+1)/sup_i); with S = Q diag(lam) Q^T (eigh, Q orthogonal)
        the operator on z mode m is D Q diag(lam - lam_m) Q^T D^-1, since its
        z shift is -lam_m I for every row (d_zz weight 1).  The similarity needs
        sub_(i+1)/sup_i > 0 for every row, h_r < 2 r in the interior, which
        build_grid's grids meet: their interior radii exceed h_r.
        """
        hit = self._bases.get(op)
        if hit is not None:
            return hit
        sub, diag, sup, _, unk = _radial_rows(self.grid, op)
        if OPERATORS[op].zz_over_r:
            raise ValueError(f"{op} has no radial eigenbasis: its d_zz weight varies with r")
        low, up = sub[unk][1:], sup[unk][:-1]
        if not np.all(low * up > 0):
            raise ValueError(
                f"{op} has no radial eigenbasis: sub_(i+1)/sup_i <= 0 at some row (h_r >= 2 r)"
            )
        d = np.concatenate(([1.0], np.cumprod(np.sqrt(low / up))))
        n = d.size
        S = np.zeros((n, n))
        S.flat[:: n + 1] = diag[unk]
        S.flat[1 :: n + 1] = S.flat[n :: n + 1] = np.sqrt(low * up)
        lam, Q = np.linalg.eigh(S)
        self.counts["factorizations"] += 1
        self._bases[op] = hit = Q, d, lam
        return hit

    def _cn(self, op: str, dt: float, modal: bool) -> TridiagBatch | np.ndarray:
        """What a Crank-Nicolson step of (op, dt) applies, cached per (op, dt, modal).

        modal: the gains (1 + dt mu/2) / (1 - dt mu/2), mu = lam_k - lam_m
        the eigenvalues of op's eigenbasis (_basis) on z mode m, one per
        coefficient of the modal layout (n, 2M): each mode's twice, for its
        real and imaginary parts.  Otherwise the factorization of
        A/2 = (I - (dt/2) B) / 2: halving a matrix halves every pivot
        exactly, so the factorization is A's with its scale 1/denom doubled,
        and its solve returns 2 A^-1 f bit for bit.
        """
        # dt to 12 significant digits: the round-off in a run's time
        # arithmetic (a last step of 0.0012499999999998 after steps of
        # 0.00125) does not cost a second factorization
        key = (op, float(f"{dt:.12g}"), modal)
        hit = self._heat_cache.get(key)
        if hit is not None:
            return hit
        if modal:
            half = 0.5 * dt * (self._basis(op)[2][:, None] - self._lam[None, :])
            hit = np.repeat((1.0 + half) / (1.0 - half), 2, axis=1)
            self._check_gains(op, dt, hit)
        else:
            hit = self._factor(op, 0.5, -0.25 * dt, self._lam)
        self._heat_cache[key] = hit
        return hit

    def _check_gains(self, op: str, dt: float, gains: np.ndarray) -> None:
        """Raise unless the modal step with gains is (op, dt)'s tridiagonal step.

        A fixed probe on z modes 0 and M - 1, the smoothest and the
        stiffest, goes through the gains in op's eigenbasis and through the
        factorization of A/2 on those two modes (the block layout's step);
        the two must agree to 1e-10 of the probe's size.  The eigenbasis is
        LAPACK's and its similarity D grows ill-conditioned as h_r nears
        2 r on a hand-built grid; the tridiagonal step is the reference, and
        its bits do not depend on the BLAS.
        """
        Q, d, _ = self._basis(op)
        n = d.size
        probe = np.zeros((n, 4))  # modes 0 and M - 1, real and imaginary parts
        probe[:, 0] = probe[:, 2] = np.sin(np.arange(1.0, n + 1.0))
        thomas = self._factor(op, 0.5, -0.25 * dt, self._lam[[0, -1]]).solve(_to_blocks(probe))
        thomas = _from_blocks(thomas, n) - probe
        m = gains.shape[1]
        coef = Q.T @ (probe / d[:, None])
        coef *= gains[:, [0, 1, m - 2, m - 1]]
        miss = float(np.max(np.abs(d[:, None] * (Q @ coef) - thomas)))
        if not miss <= 1e-10:
            raise ValueError(
                f"{op}'s radial eigenbasis misses its Crank-Nicolson step at dt = {dt:g} "
                f"by {miss:.3g} (tolerance 1e-10)"
            )

    def spectrum(self, f: np.ndarray, op: str) -> np.ndarray:
        """f's z spectrum on op's unknown rows, in the block layout heat_step advances.

        A new (s, B, 2 M) float array, M = n_z//2 + 1: the rfft in z of f's
        rows _unknown_rows(op) in TridiagBatch's block order, real and
        imaginary parts side by side.  The pinned wall rows of f are
        dropped.
        """
        unk = _unknown_rows(self.grid, op)
        self.counts["transforms"] += 1
        return _to_blocks(np.fft.rfft(np.asarray(f, float)[unk], axis=1).view(float))

    def modes(self, f: np.ndarray, op: str) -> np.ndarray:
        """f's z spectrum in heat operator op's radial eigenbasis: the modal layout.

        A new (n, 2 M) float array, n = op's unknown rows: the rfft in z of
        those rows, divided by d, then Q^T (_basis) applied to the real and
        imaginary parts of every mode at once.  Row k holds eigenvector k's
        coefficients, each mode's real and imaginary parts side by side.
        """
        Q, d, _ = self._basis(op)
        unk = _unknown_rows(self.grid, op)
        self.counts["transforms"] += 1
        fhat = np.fft.rfft(np.asarray(f, float)[unk], axis=1)
        fhat /= d[:, None]
        return Q.T @ fhat.view(float)

    def _from_modes(self, coef: np.ndarray, op: str, rows: slice) -> np.ndarray:
        """The spectrum (rows, 2M) on op's unknown rows `rows` of modal coefficients:
        those rows of D Q coef, a new array.

        Its scratch copy of coef is freed on return, before the mesh rows are
        allocated.
        """
        Q, d, _ = self._basis(op)
        # coefficients under 2^-900 of the largest lie far below the rounding
        # of every value a sup norm reads, and once they decay into the
        # subnormal range they make the product 4x slower
        kept = np.abs(coef)
        negligible = kept < 2.0**-900 * np.max(kept)
        np.copyto(kept, coef)
        kept[negligible] = 0.0
        out = Q[rows] @ kept
        out *= d[rows, None]
        return out

    def _field_rows(self, fhat: np.ndarray, op: str, lo: int, hi: int) -> np.ndarray:
        """Mesh rows lo:hi of field(fhat, op), a new (hi - lo, n_z) array.

        Only op's unknown rows inside lo:hi are rebuilt: in the modal layout
        that is a product with those rows of D Q alone.  One transform.
        """
        g = self.grid
        unk = _unknown_rows(g, op)
        a, b = max(lo, unk.start), min(hi, unk.stop)  # the band's unknown rows
        band = slice(a - unk.start, b - unk.start)  # their rows in the spectrum
        if fhat.ndim == 2:
            rows = self._from_modes(fhat, op, band)
        else:
            rows = _from_blocks(fhat, unk.stop - unk.start)[band]
        self.counts["transforms"] += 1
        out = np.empty((hi - lo, g.n_z))
        np.fft.irfft(rows.view(complex), n=g.n_z, axis=1, out=out[a - lo : b - lo])
        out[: a - lo] = 0.0
        out[b - lo :] = 0.0
        return out

    def field(self, fhat: np.ndarray, op: str) -> np.ndarray:
        """The mesh field of a spectrum in either layout; op's pinned rows are 0.

        A 3-d fhat is in spectrum()'s block layout, a 2-d one in modes()'
        modal layout; fhat is not modified.
        """
        return self._field_rows(fhat, op, 0, self.grid.n_r)

    def heat_step(self, fhat: np.ndarray, dt: float, op: str) -> np.ndarray:
        """One Crank-Nicolson step of d_t f = op f (unconditionally stable), in place.

        fhat is a spectrum in either layout, told apart by its shape: the
        block layout of spectrum(f, op) or the modal layout of modes(f, op).
        It is overwritten with the stepped spectrum and returned.  With
        A = I - (dt/2) B the step is A^-1 (2I - A) fhat = 2 A^-1 fhat - fhat:
        in the block layout one solve with A/2 and one subtraction, in the
        modal layout one product with the step's gains (_cn).  Once the
        (op, dt) step is cached, a step allocates nothing.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        modal = fhat.ndim == 2
        cn = self._cn(op, dt, modal)
        shape = cn.shape if modal else cn.work.shape
        if fhat.shape != shape:
            layout = "modes" if modal else "block order"
            raise ValueError(f"{op} spectrum must have shape {shape} ({layout}), got {fhat.shape}")
        self.counts["heat_steps"] += 1
        if modal:
            return np.multiply(fhat, cn, out=fhat)
        return np.subtract(cn.solve(fhat), fhat, out=fhat)

    def apply_heat_operator(self, f: np.ndarray, op: str) -> np.ndarray:
        """Explicit application of any table operator, the stream one too; pinned rows map to 0."""
        sub, diag, sup, w, _ = _radial_rows(self.grid, op)
        vals = np.asarray(f, float)
        out = diag[:, None] * vals
        out[1:] += sub[1:, None] * vals[:-1]
        out[:-1] += sup[:-1, None] * vals[1:]
        out += d2z(self.grid, vals) / w[:, None]
        return pin(out, op)

    def explicit_stability_bound(self, op: str) -> float:
        """Largest dt with 1 + dt*diag >= 0 for every row (monotone explicit step)."""
        g = self.grid
        _, diag, _, _, unk = _radial_rows(g, op)
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
    envelope: tuple[float, float],
) -> np.ndarray:
    """Spike with the L^p-critical profile rho^(-3/p), normalized to ||f||_p = 1.

    The evolved sup norm of this profile decays self-similarly like
    t^(-3/(2p)) (and its gradient like t^(-3/(2p)-1/2)); for p = inf the
    profile degenerates to a constant plateau.  Cells within 4 cells
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
        idx = np.argwhere(rho < 4.0 * h)
        m = 24
        off = (np.arange(m) + 0.5) / m - 0.5
        ox, oy = np.meshgrid(off * grid.h_r, off * grid.h_z, indexing="ij")
        for i, j in idx:
            sx = dr[i, 0] + ox
            sy = dz_per[j] + oy
            vals[i, j] = float(np.mean(np.hypot(sx, sy) ** (-a)))
    rho1, rho2 = envelope
    vals = vals * _smoothstep((rho - rho1) / (rho2 - rho1))
    return vals / lp_norm(grid, vals, p)


def _gradient_sup(fr: np.ndarray, fz: np.ndarray, where: np.ndarray) -> float:
    """np.max(np.hypot(fr, fz)[where]) bit for bit, with few hypot calls.

    The square fr*fr + fz*fz and hypot are each within a few ulp of the
    exact magnitude, so only the nodes whose square lies within a relative
    1e-12 of the largest can hold the largest hypot, and only they go
    through hypot.  Every node does when the largest square is inf or nan
    (a square overflowed, or the field holds inf or nan) or lies below
    2^-900, where the squares lose their precision to underflow.
    """
    with np.errstate(over="ignore"):
        sq = np.multiply(fr, fr)
        sq += np.multiply(fz, fz)
    top = float(np.max(sq, where=where, initial=0.0))
    if math.isfinite(top) and top >= 2.0**-900:
        where = (sq >= top * (1.0 - 1e-12)) & where
    return float(np.max(np.hypot(fr[where], fz[where])))


def _decay_series(
    solver: EllipticSolver,
    op: str,
    f0: np.ndarray,
    ks: tuple[int, ...],
    t_window: tuple[float, float],
    dt: float,
    n_samples: int,
    mask: np.ndarray,
):
    """One evolution of f0 recording masked sup norms for every k in ks.

    A sample reads back only the mask's row band: the rows holding a masked
    node and one halo row on each side, which ddr's centred differences
    read, clipped to the grid and widened to the 4 rows its wall stencils
    need.  Its sups are taken on the band's bounding box of the mask: the
    masked columns and one halo column on each side, which ddz's centred
    differences read, or all columns when the mask reaches column 0 or
    n_z - 1, where ddz wraps around.  sup |grad f| is the exact hypot of
    the nodes of largest squared magnitude (_gradient_sup).  The box's
    masked norms are those of the whole field, bit for bit.
    """
    t0, t1 = t_window
    if not (0 < t0 < t1):
        raise FitWindowError(f"bad fit window [{t0}, {t1}]")
    for k in ks:
        if k not in (0, 1):
            raise ValueError(f"k must be 0 or 1, got {k}")
    grid = solver.grid
    masked_rows = np.flatnonzero(np.any(mask, axis=1))
    if masked_rows.size == 0:
        raise ValueError("the mask selects no node")
    lo, hi = max(int(masked_rows[0]) - 1, 0), min(int(masked_rows[-1]) + 2, grid.n_r)
    if hi - lo < 4:
        hi = min(lo + 4, grid.n_r)
        lo = hi - 4
    masked_cols = np.flatnonzero(np.any(mask, axis=0))
    c0, c1 = int(masked_cols[0]) - 1, int(masked_cols[-1]) + 2
    if c0 < 0 or c1 > grid.n_z:
        c0, c1 = 0, grid.n_z
    box = mask[lo:hi, c0:c1]
    # a set of ints, not np.unique: that one's first call imports numpy.ma
    target = {int(n) for n in np.rint(np.geomspace(t0, t1, n_samples) / dt) if n >= 1}
    if len(target) < 3:
        raise FitWindowError("fit window too narrow for the given dt")
    fhat = solver.modes(f0, op)
    del f0  # the loop needs only the modes
    times: list[float] = []
    norms: dict[int, list[float]] = {k: [] for k in ks}
    for n in range(1, max(target) + 1):
        solver.heat_step(fhat, dt, op)
        if n in target:
            f = np.ascontiguousarray(solver._field_rows(fhat, op, lo, hi)[:, c0:c1])
            times.append(n * dt)
            for k in ks:
                if k == 0:
                    norms[k].append(float(np.max(np.abs(f[box]))))
                else:
                    norms[k].append(_gradient_sup(ddr(grid, f), ddz(grid, f), box))
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


@dataclass
class SemigroupCase:
    """One (operator, p, k) decay-rate measurement against 3/(2p) + k/2."""

    op: str
    p: float
    k: int
    target_exponent: float
    fitted_exponent: float
    stderr: float
    prefactor: float


DEFAULT_SEMIGROUP_CASES: tuple[tuple[str, float, int], ...] = tuple(
    (op, p, k) for op in HEAT_OPERATORS for (p, k) in ((2.0, 0), (6.0, 0), (6.0, 1), (math.inf, 0))
)


def semigroup_experiment(
    n: int, dt: float, cases: tuple[tuple[str, float, int], ...], counts: Counter
) -> list[SemigroupCase]:
    """Run the decay-rate harness over (op, p, k) cases.

    The grid is [1, 17] x [0, 16) with n x (n - 1) nodes, and each spike
    is centred at (r, z) = (9, 8) with the envelope (rho1, rho2) = (5, 7);
    each evolution is sampled at 24 log-spaced times of the fit window.
    The sup is taken over the core disc rho <= rho1/2, where the spike
    agrees with the scale-invariant profile; outside it the truncating
    envelope and walls contaminate the power law.  Cases sharing (op, p)
    reuse a single evolution.  The solver's counters (EllipticSolver.counts)
    are added to counts.
    """
    grid = build_grid(1.0, 17.0, 16.0, n, n - 1)
    solver = EllipticSolver(grid)
    center, envelope = (9.0, 8.0), (5.0, 7.0)
    rho1 = envelope[0]
    r0, z0 = center
    dz_abs = np.abs(grid.z - z0)
    dz_per = np.minimum(dz_abs, grid.L_z - dz_abs)
    mask = np.hypot(grid.rcol - r0, dz_per[None, :]) <= 0.5 * rho1
    h = max(grid.h_r, grid.h_z)
    window = (max(25.0 * dt, 12.0 * (2.0 * h) ** 2), (rho1 / 4.0) ** 2)

    grouped: dict[tuple[str, float], list[int]] = {}
    for op, p, k in cases:
        grouped.setdefault((op, p), []).append(k)
    results: list[SemigroupCase] = []
    for (op, p), ks in grouped.items():
        # the spike is handed over unnamed, so the evolution can free it
        times, norms = _decay_series(
            solver,
            op,
            power_spike(grid, p, center, envelope),
            tuple(sorted(set(ks))),
            window,
            dt,
            24,
            mask,
        )
        for k in ks:
            fitted, stderr, prefactor = _loglog_fit(times, norms[k])
            target = (0.0 if math.isinf(p) else 3.0 / (2.0 * p)) + 0.5 * k
            results.append(SemigroupCase(op, p, k, target, fitted, stderr, prefactor))
    counts.update(solver.counts)
    return results


def commutation_check(solver: EllipticSolver, gamma0: np.ndarray, t: float, dt: float) -> float:
    """sup |r e^(t L0) g - e^(t L1) (r g)| with the operators' Robin walls and matched steps."""
    grid = solver.grid
    small = np.array(gamma0, dtype=float)
    small_hat, big_hat = solver.modes(small, "L0"), solver.modes(grid.rcol * small, "L1")
    for _ in range(int(round(t / dt))):
        solver.heat_step(small_hat, dt, "L0")
        solver.heat_step(big_hat, dt, "L1")
    small, big = solver.field(small_hat, "L0"), solver.field(big_hat, "L1")
    return float(np.max(np.abs(grid.rcol * small - big)))


@dataclass
class CommutationLevel:
    """One rung of commutation_ladder: reduction_ratio is the previous
    rung's deviation over this one's, None on level 0."""

    level: int
    n: int
    dt: float
    deviation: float
    reduction_ratio: float | None


def commutation_ladder(counts: Counter) -> list[CommutationLevel]:
    """commutation_check's deviation at t = 0.05 on a joint (h, dt)
    refinement ladder.

    The data is the compact bump 1.4 < r < 2.5 times 1 + 0.3 sin(2 pi z / L_z)
    on [1, 3] x [0, 2) with n x (n - 1) nodes, n = 65, 129, 257, stepped
    to t in 16, 32, 64 steps.  The solvers' counters
    (EllipticSolver.counts) are added to counts.
    """
    from .fields import bump_profile

    t = 0.05
    out: list[CommutationLevel] = []
    for level, (n, steps) in enumerate(((65, 16), (129, 32), (257, 64))):
        grid = build_grid(1.0, 3.0, 2.0, n, n - 1)
        solver = EllipticSolver(grid)
        gamma = bump_profile(grid.r, 1.4, 2.5)[:, None] * (
            1 + 0.3 * np.sin(2 * np.pi * grid.z / grid.L_z)[None, :]
        )
        dev = commutation_check(solver, gamma, t, t / steps)
        ratio = out[-1].deviation / dev if out else None
        out.append(CommutationLevel(level, n, t / steps, dev, ratio))
        counts.update(solver.counts)
    return out
