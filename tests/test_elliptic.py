import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from axicyl import elliptic
from axicyl.elliptic import (
    EllipticSolver,
    TridiagBatch,
    FitWindowError,
    commutation_check,
    power_spike,
    semigroup_experiment,
)
from axicyl.fields import bump_profile
from axicyl.grid import build_grid, lp_norm


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 3, 2.0, 33, 32)


@pytest.fixture(scope="module")
def solver(grid):
    return EllipticSolver(grid)


def _step(solver, f, dt, op):
    """One Crank-Nicolson step of a mesh field: field(heat_step(spectrum(f)))."""
    return solver.field(solver.heat_step(solver.spectrum(f, op), dt, op), op)


def _thomas_rows(sub, diag, sup, rhs):
    """Reference: the row-by-row Thomas sweep over all systems at once."""
    n = diag.shape[1]
    cp = np.empty_like(diag)
    d = np.empty_like(rhs)
    cp[:, 0] = sup[:, 0] / diag[:, 0]
    d[:, 0] = rhs[:, 0] / diag[:, 0]
    for i in range(1, n):
        denom = diag[:, i] - sub[:, i] * cp[:, i - 1]
        cp[:, i] = sup[:, i] / denom
        d[:, i] = (rhs[:, i] - sub[:, i] * d[:, i - 1]) / denom
    for i in range(n - 2, -1, -1):
        d[:, i] -= cp[:, i] * d[:, i + 1]
    return d


def _random_system(n, M, dtype, seed):
    """(sub, diag, sup, rhs) of M random systems of size n.

    Diagonally dominant, like every operator the solver factors; the
    corner entries sub[:, 0] and sup[:, -1] are set and must be ignored.
    """
    rng = np.random.default_rng(seed)
    sub = rng.uniform(-1.0, 1.0, (M, n))
    sup = rng.uniform(-1.0, 1.0, (M, n))
    diag = rng.choice([-1.0, 1.0], (M, n)) * rng.uniform(2.5, 3.5, (M, n))
    rhs = rng.normal(size=(M, n)).astype(dtype)
    if dtype is complex:
        rhs += 1j * rng.normal(size=(M, n))
    return sub, diag, sup, rhs


@pytest.mark.parametrize("n", [1, 2, 5, 127, 128, 383])
@pytest.mark.parametrize("M", [1, 3, 65])
@pytest.mark.parametrize("dtype", [float, complex])
def test_tridiag_batch_matches_dense_solve(n, M, dtype):
    sub, diag, sup, rhs = _random_system(n, M, dtype, n * 100 + M)
    batch = TridiagBatch(sub, diag, sup)
    assert (batch.M, batch.n) == (M, n)
    dense = np.stack(
        [np.diag(diag[m]) + np.diag(sub[m, 1:], -1) + np.diag(sup[m, :-1], 1) for m in range(M)]
    )
    expect = np.linalg.solve(dense, rhs[:, :, None])[:, :, 0]
    rows = _thomas_rows(sub, diag, sup, rhs)
    # the right-hand side in the kernel's layout: (n, M) complex rows in
    # block order, real and imaginary parts side by side
    given = elliptic._to_blocks(np.ascontiguousarray(rhs.T, dtype=complex).view(float))
    kept = given.copy()
    out = batch.solve(given)
    assert out is batch.work and np.array_equal(given, kept)
    x = elliptic._from_blocks(out, n).view(complex).T
    if dtype is float:
        assert np.all(x.imag == 0.0)
        x = x.real
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(x - expect)) <= 1e-12 * scale
    assert np.max(np.abs(x - rows)) <= 64 * np.finfo(float).eps * scale


@pytest.mark.parametrize(
    "diag, sub",
    [
        ([[0.0, 1.0, 1.0]], [[0.0, 1.0, 1.0]]),  # zero first pivot
        ([[1.0, 1.0, 1.0]], [[0.0, 1.0, 1.0]]),  # second pivot 1 - 1*1 = 0
    ],
)
def test_tridiag_batch_singular_raises(diag, sub):
    # the pivots are checked once, after the elimination, which divides by
    # the zero pivot on the way: no RuntimeWarning may leave it
    diag, sub = np.array(diag), np.array(sub)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(FloatingPointError):
            TridiagBatch(sub, diag, np.ones_like(diag))


class _SlicingBatch:
    """Reference: TridiagBatch's two-level sweep slicing its arrays on every call.

    The same factorization and the same numpy calls in the same order as
    TridiagBatch, which makes its views once; the two solves must agree
    bit for bit.
    """

    def __init__(self, sub, diag, sup):
        M, n = diag.shape
        s, B, _ = elliptic._block_order(n)
        inv_denom = np.empty((n, M))
        cp = np.zeros((n, M))
        sub, diag, sup = sub.T, diag.T, sup.T
        inv_denom[0] = 1.0 / diag[0]
        cp[0] = sup[0] * inv_denom[0]
        for i in range(1, n):
            inv_denom[i] = 1.0 / (diag[i] - sub[i] * cp[i - 1])
            cp[i] = sup[i] * inv_denom[i]
        cp[n - 1] = 0.0
        fwd = np.zeros_like(cp)
        fwd[1:] = -sub[1:] * inv_denom[1:]

        def blocks(coef):
            return elliptic._to_blocks(np.repeat(coef, 2, axis=1))

        self._scale = blocks(inv_denom)
        fwd = blocks(fwd)
        bwd = blocks(np.negative(cp, out=cp))[::-1]
        self._elimination = (fwd, *elliptic._block_products(fwd), 1)
        self._substitution = (bwd, *elliptic._block_products(bwd), -1)
        self.work = np.zeros((s, B, 2 * M))
        self._scratch = tuple(np.empty((B, 2 * M)) for _ in range(3))

    def solve(self, rhs):
        w = self.work
        np.multiply(rhs, self._scale, out=w)
        self._sweep(w, *self._elimination, *self._scratch)
        self._sweep(w[::-1], *self._substitution, *self._scratch)
        return w

    @staticmethod
    def _sweep(w, coef, weights, span, step, ends, carry, tmp):
        s, B = w.shape[:2]
        np.einsum("jx,jx->x", weights.reshape(s, -1), w.reshape(s, -1), out=ends.reshape(-1))
        c, e, sp = carry[::step], ends[::step], span[::step]
        c[0] = 0.0
        for k in range(1, B):
            np.multiply(sp[k - 1], c[k - 1], out=c[k])
            c[k] += e[k - 1]
        np.multiply(coef[0], carry, out=tmp)
        w[0] += tmp
        for j in range(1, s):
            np.multiply(coef[j], w[j - 1], out=tmp)
            w[j] += tmp


@pytest.mark.parametrize("n", [1, 2, 5, 127, 128, 383])
@pytest.mark.parametrize("dtype", [float, complex])
def test_tridiag_batch_plan_is_bit_identical_to_the_slicing_sweep(n, dtype):
    # two solves on one factorization each, so a carry left over from the
    # first cannot go unnoticed in the second
    sub, diag, sup, first = _random_system(n, 17, dtype, n)
    second = _random_system(n, 17, dtype, n + 1)[3]
    batch, ref = TridiagBatch(sub, diag, sup), _SlicingBatch(sub, diag, sup)
    for rhs in (first, second):
        given = elliptic._to_blocks(np.ascontiguousarray(rhs.T, dtype=complex).view(float))
        assert np.array_equal(batch.solve(given), ref.solve(given))


def test_heat_steps_build_no_stream_factorization(grid, monkeypatch):
    shapes = []

    class Counting(TridiagBatch):
        def __init__(self, sub, diag, sup):
            super().__init__(sub, diag, sup)
            shapes.append((self.M, self.n))

    monkeypatch.setattr(elliptic, "TridiagBatch", Counting)
    s = EllipticSolver(grid)
    f = bump_profile(grid.r, 1.3, 2.6)[:, None] * np.ones(grid.shape)
    fhat = s.spectrum(f, "L1")
    for _ in range(3):
        s.heat_step(fhat, 0.01, "L1")
    assert len(shapes) == 1
    f = s.field(fhat, "L1")
    s.solve_stream(f)
    s.solve_stream(f)
    assert shapes[1:] == [(grid.n_z // 2 + 1, grid.n_r - 2)]


def manufactured_pair(R_out, L_z):
    r, z = sp.symbols("r z", positive=True)
    psi = (r - 1) * (R_out - r) * sp.sin(2 * sp.pi * z / L_z)
    omega = -(sp.diff(sp.diff(psi, r) / r, r) + sp.diff(psi, z, 2) / r)
    return sp.lambdify((r, z), psi, "numpy"), sp.lambdify((r, z), omega, "numpy")


def test_solve_stream_zero(solver, grid):
    psi = solver.solve_stream(np.zeros(grid.shape))
    assert np.all(psi == 0.0)


def test_solve_stream_residual_and_walls(solver, grid):
    rng = np.random.default_rng(0)
    om = rng.normal(size=grid.shape)
    om[0] = 0.0
    om[-1] = 0.0
    psi = solver.solve_stream(om)
    assert solver.stream_residual(psi, om) < 1e-12
    assert np.all(psi[0] == 0.0)
    assert np.all(psi[-1] == 0.0)


@pytest.mark.parametrize("n", [17, 33, 65, 129, 257])
def test_solve_stream_from_the_l0p_spectrum_is_bit_identical(n):
    # L0' and the stream operator solve for the same rows, so omega's L0'
    # spectrum is a stream right-hand side.  The stream solve factors -S:
    # its pivots are S's negated exactly and its multipliers S's, so its
    # solve of omega is bit for bit S's solve of omega, negated (the solve
    # only multiplies and adds, and rounding is symmetric in sign)
    g = build_grid(1.0, 3.0, 2.0, n, n - 1)
    s = EllipticSolver(g)
    rng = np.random.default_rng(n)
    om = rng.normal(size=g.shape)
    om[0] = om[-1] = 0.0
    om_hat = s.spectrum(om, "L0p")
    kept = om_hat.copy()
    psi = s.solve_stream(om, om_hat)
    assert np.array_equal(om_hat, kept)  # the caller's spectrum is not modified
    assert np.array_equal(psi, s.solve_stream(om))
    rhs = s.spectrum(om, "stream")
    assert np.array_equal(psi, s.field(s._stream.solve(rhs), "stream"))
    S = s._factor("stream", 0.0, 1.0)
    assert np.array_equal(psi, s.field(np.negative(S.solve(rhs)), "stream"))
    neg = s._stream
    assert np.array_equal(neg._scale, np.negative(S._scale))
    for plan_neg, plan in zip(neg._plans, S._plans):
        weights_neg, *_, steps_neg, _ = plan_neg
        weights, *_, steps, _ = plan
        assert np.array_equal(weights_neg, weights)
        for (coef_neg, *_), (coef, *_) in zip(steps_neg, steps, strict=True):
            assert np.array_equal(coef_neg, coef)


def test_solve_stream_manufactured_second_order():
    psi_f, om_f = manufactured_pair(3.0, 2.0)
    errs = []
    for n in (33, 65):
        g = build_grid(1, 3, 2.0, n, n - 1)
        s = EllipticSolver(g)
        RR, ZZ = np.meshgrid(g.r, g.z, indexing="ij")
        psi = s.solve_stream(om_f(RR, ZZ))
        errs.append(np.max(np.abs(psi - psi_f(RR, ZZ))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_solve_stream_z_independent_vs_dense(grid, solver):
    # two-point boundary value problem, compared against an independently
    # assembled dense system
    om_r = bump_profile(grid.r, 1.3, 2.6)
    om = np.repeat(om_r[:, None], grid.n_z, axis=1)
    psi = solver.solve_stream(om)

    n, h = grid.n_r, grid.h_r
    A = np.zeros((n - 2, n - 2))
    for row, i in enumerate(range(1, n - 1)):
        bm = 1.0 / (grid.r[i] - h / 2)
        bp = 1.0 / (grid.r[i] + h / 2)
        if row > 0:
            A[row, row - 1] = bm / h**2
        A[row, row] = -(bm + bp) / h**2
        if row < n - 3:
            A[row, row + 1] = bp / h**2
    dense = np.linalg.solve(A, -om_r[1:-1])
    assert np.allclose(psi[1:-1, 0], dense, atol=1e-12)
    assert np.allclose(psi, psi[:, :1], atol=1e-12)


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=20, deadline=None)
def test_solve_stream_linearity(a, b):
    g = build_grid(1, 3, 2.0, 17, 16)
    s = EllipticSolver(g)
    rng = np.random.default_rng(42)
    om1 = rng.normal(size=g.shape)
    om2 = rng.normal(size=g.shape)
    lhs = s.solve_stream(a * om1 + b * om2)
    rhs = a * s.solve_stream(om1) + b * s.solve_stream(om2)
    assert np.allclose(lhs, rhs, atol=1e-10 * (1 + abs(a) + abs(b)))


def test_heat_step_zero_and_consistency(solver, grid):
    z = _step(solver, np.zeros(grid.shape), 0.1, "L1")
    assert np.all(z == 0.0)
    f = bump_profile(grid.r, 1.3, 2.6)[:, None] * np.ones(grid.shape)
    diffs = []
    for dt in (2e-4, 1e-4):
        out = _step(solver, f, dt, "L1")
        diffs.append(np.max(np.abs(out - f)))
    assert diffs[0] / diffs[1] == pytest.approx(2.0, rel=0.05)


def test_heat_step_reuses_the_cached_step_for_a_rounded_dt(grid):
    # a dt equal to a cached one to 12 significant digits, such as the
    # last step of a run that the time arithmetic shortened by round-off,
    # reuses that factorization and its theta
    s = EllipticSolver(grid)
    f = bump_profile(grid.r, 1.3, 2.6)[:, None] * np.ones(grid.shape)
    dt = 0.000625
    first = _step(s, f, dt, "L1")
    for near in (np.nextafter(dt, 0.0), 0.0006249999999999):
        assert near != dt
        assert np.array_equal(_step(s, f, near, "L1"), first)
    assert s.counts["factorizations"] == 1
    _step(s, f, dt * (1 + 1e-9), "L1")
    assert s.counts["factorizations"] == 2


def test_heat_step_rejects_bad_args(solver, grid):
    f = np.zeros(grid.shape)
    fhat = solver.spectrum(f, "L0")
    with pytest.raises(ValueError):
        solver.heat_step(fhat, -0.1, "L0")
    with pytest.raises(ValueError):
        solver.heat_step(fhat, 0.1, "L7")
    with pytest.raises(ValueError):
        solver.spectrum(f, "L7")
    with pytest.raises(ValueError):
        solver.field(fhat, "L7")
    with pytest.raises(ValueError, match="spectrum must have shape"):
        solver.heat_step(f, 0.1, "L0")


@pytest.mark.parametrize("op", ["L0", "L1", "L0p", "stream"])
def test_spectrum_field_round_trip(solver, grid, op):
    rng = np.random.default_rng(7)
    f = rng.normal(size=grid.shape)
    back = solver.field(solver.spectrum(f, op), op)
    pinned = f.copy()
    pinned[-1] = 0.0
    if elliptic.OPERATORS[op].wall is None:
        pinned[0] = 0.0
    assert np.all(back[-1] == 0.0) and (op in ("L0", "L1") or np.all(back[0] == 0.0))
    tol = 16 * np.finfo(float).eps * np.max(np.abs(f))
    np.testing.assert_allclose(back, pinned, rtol=0, atol=tol)


def test_heat_step_advances_the_spectrum_in_place(grid):
    s = EllipticSolver(grid)
    f = bump_profile(grid.r, 1.3, 2.6)[:, None] * np.cos(2 * np.pi * grid.z / grid.L_z)
    fhat = s.spectrum(f, "L1")
    copy = fhat.copy()
    out = s.heat_step(fhat, 0.01, "L1")
    assert out is fhat and not np.array_equal(fhat, copy)
    # the stepped spectrum is the mesh step's, and a second array starting
    # from the same spectrum ends at the same bits: no state is left behind
    np.testing.assert_allclose(s.field(fhat, "L1"), _step(s, f, 0.01, "L1"), rtol=0, atol=1e-15)
    assert np.array_equal(s.heat_step(copy, 0.01, "L1"), fhat)
    # the same array passed in twice is two steps
    twice = s.spectrum(f, "L1")
    s.heat_step(s.heat_step(twice, 0.01, "L1"), 0.01, "L1")
    assert np.array_equal(twice, s.heat_step(fhat, 0.01, "L1"))
    assert s.counts["heat_steps"] == 6


def test_heat_step_allocates_nothing_in_steady_state():
    g = build_grid(1, 3, 2.0, 129, 128)
    s = EllipticSolver(g)
    fhat = s.spectrum(bump_profile(g.r, 1.3, 2.6)[:, None] * np.ones(g.shape), "L1")
    s.heat_step(fhat, 0.01, "L1")  # builds and caches the factorization
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(10):
            s.heat_step(fhat, 0.01, "L1")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < fhat.nbytes / 10


def _dense_l0p_radial(grid):
    """Independent dense assembly of the z-independent L0' operator."""
    n, h = grid.n_r, grid.h_r
    B = np.zeros((n - 2, n - 2))
    for row, i in enumerate(range(1, n - 1)):
        ri = grid.r[i]
        if row > 0:
            B[row, row - 1] = 1 / h**2 - 1 / (2 * h * ri)
        B[row, row] = -2 / h**2 - 1 / ri**2
        if row < n - 3:
            B[row, row + 1] = 1 / h**2 + 1 / (2 * h * ri)
    return B


def test_heat_step_cn_matches_dense_exponential(grid, solver):
    # z-independent mode under L0': n-step CN versus the dense matrix
    # exponential, with second-order error in dt
    B = _dense_l0p_radial(grid)
    f0_r = np.sin(np.pi * (grid.r - 1) / (grid.R - 1))
    t_end = 0.05
    w, V = np.linalg.eig(B)
    exact_interior = V @ (np.exp(w * t_end) * np.linalg.solve(V, f0_r[1:-1]))
    errs = []
    for steps in (8, 16):
        f = np.repeat(f0_r[:, None], grid.n_z, axis=1)
        f[0] = 0.0
        f[-1] = 0.0
        dt = t_end / steps
        fhat = solver.spectrum(f, "L0p")
        for _ in range(steps):
            solver.heat_step(fhat, dt, "L0p")
        f = solver.field(fhat, "L0p")
        errs.append(np.max(np.abs(f[1:-1, 0] - exact_interior.real)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


def test_explicit_operator_matches_implicit_generator(grid, solver):
    # (heat_step(f) - f)/dt -> apply_heat_operator(f) as dt -> 0
    f = bump_profile(grid.r, 1.3, 2.6)[:, None] * np.cos(2 * np.pi * grid.z / grid.L_z)
    Bf = solver.apply_heat_operator(f, "L1")
    dt = 1e-7
    fd = (_step(solver, f, dt, "L1") - f) / dt
    assert np.allclose(fd, Bf, atol=1e-4 * (1 + np.max(np.abs(Bf))))


def test_explicit_stability_bound_positive(solver):
    for op in ("L0", "L1", "L0p"):
        assert 0 < solver.explicit_stability_bound(op) < 1.0


def test_commutation_trivial(solver, grid):
    assert commutation_check(solver, np.zeros(grid.shape), 0.05, 0.01) == 0.0
    gam = bump_profile(grid.r, 1.4, 2.5)[:, None] * np.ones(grid.shape)
    assert commutation_check(solver, gam, 0.0, 0.01) == 0.0


def test_power_spike_normalization():
    g = build_grid(1, 5, 4.0, 65, 64)
    for p in (2.0, 6.0, math.inf):
        f0 = power_spike(g, p, (3.0, 2.0), envelope=(1.2, 1.8))
        assert lp_norm(g, f0, p) == pytest.approx(1.0, rel=1e-12)
        assert np.all(f0 >= 0)
    # envelope makes the data vanish at the walls
    f0 = power_spike(g, 6.0, (3.0, 2.0), envelope=(1.2, 1.8))
    assert np.all(f0[0] == 0.0)
    assert np.all(f0[-1] == 0.0)


def test_decay_fit_sup_norm_plateau():
    # p = inf data: the sup norm barely moves inside the window (max principle)
    g = build_grid(1, 9, 8.0, 129, 128)
    s = EllipticSolver(g)
    f0 = power_spike(g, math.inf, (5.0, 4.0), envelope=(2.0, 3.2))
    times, norms = elliptic._decay_series(s, "L1", f0, (0,), (0.05, 0.4), 0.005, 24, None)
    exponent, _, _ = elliptic._loglog_fit(times, norms[0])
    assert abs(exponent) < 0.03


def test_decay_fit_rejects_bad_window(solver, grid):
    f0 = np.ones(grid.shape)
    with pytest.raises(FitWindowError):
        elliptic._decay_series(solver, "L0", f0, (0,), (0.5, 0.1), 0.01, 24, None)
    with pytest.raises(FitWindowError):  # fewer than three steps inside the window
        elliptic._decay_series(solver, "L0", f0, (0,), (0.1, 0.12), 0.05, 24, None)
    with pytest.raises(ValueError, match="k must be 0 or 1"):
        elliptic._decay_series(solver, "L0", f0, (2,), (0.1, 0.5), 0.01, 24, None)


def test_semigroup_experiment_small():
    # a cheap scaled-down harness run: exponents land within a loose band
    cases = (("L1", 6.0, 0), ("L1", math.inf, 0))
    results = semigroup_experiment(
        n=129, dt=1 / 150.0, R=9.0, L_z=8.0, center=(5.0, 4.0), envelope=(2.5, 3.5), cases=cases
    )
    by_key = {(r.op, r.p, r.k): r for r in results}
    assert abs(by_key[("L1", 6.0, 0)].fitted - 0.25) < 0.1
    assert abs(by_key[("L1", math.inf, 0)].fitted) < 0.1


def test_semigroup_experiment_leaves_numpy_ma_unloaded():
    # np.unique's first call imports numpy.ma, which costs milliseconds of set-up
    src = str(Path(elliptic.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from axicyl.elliptic import semigroup_experiment\n"
        "semigroup_experiment(n=129, dt=1 / 150.0, R=9.0, L_z=8.0, center=(5.0, 4.0),\n"
        "                     envelope=(2.5, 3.5), cases=(('L1', 6.0, 0),))\n"
        "sys.exit('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
