import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axicyl import elliptic
from axicyl.elliptic import (
    EllipticSolver,
    TridiagBatch,
    commutation_check,
    default_bc,
    power_spike,
    semigroup_decay_fit,
    semigroup_experiment,
)
from axicyl.fields import DIRICHLET0, bump_profile, robin
from axicyl.grid import build_grid, lp_norm


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 3, 2.0, 33, 32)


@pytest.fixture(scope="module")
def solver(grid):
    return EllipticSolver(grid)


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


@pytest.mark.parametrize("n", [1, 2, 5, 127, 128, 383])
@pytest.mark.parametrize("M", [1, 3, 65])
@pytest.mark.parametrize("dtype", [float, complex])
def test_tridiag_batch_matches_dense_solve(n, M, dtype):
    rng = np.random.default_rng(n * 100 + M)
    # diagonally dominant, like every operator the solver factors; the
    # corner entries sub[:, 0] and sup[:, -1] are set and must be ignored
    sub = rng.uniform(-1.0, 1.0, (M, n))
    sup = rng.uniform(-1.0, 1.0, (M, n))
    diag = rng.choice([-1.0, 1.0], (M, n)) * rng.uniform(2.5, 3.5, (M, n))
    rhs = rng.normal(size=(M, n)).astype(dtype)
    if dtype is complex:
        rhs += 1j * rng.normal(size=(M, n))
    batch = TridiagBatch(sub, diag, sup)
    assert (batch.M, batch.n) == (M, n)
    dense = np.stack(
        [np.diag(diag[m]) + np.diag(sub[m, 1:], -1) + np.diag(sup[m, :-1], 1) for m in range(M)]
    )
    expect = np.linalg.solve(dense, rhs[:, :, None])[:, :, 0]
    rows = _thomas_rows(sub, diag, sup, rhs)
    # C-ordered (M, n), and the transposed (n, M) view the z-FFT hands over
    for given in (rhs, np.ascontiguousarray(rhs.T).T):
        x = batch.solve(given)
        assert x.shape == (M, n) and x.dtype == rhs.dtype
        scale = np.max(np.abs(expect))
        assert np.max(np.abs(x - expect)) <= 1e-12 * scale
        assert np.max(np.abs(x - rows)) <= 64 * np.finfo(float).eps * scale
        assert np.array_equal(given, rhs)


@pytest.mark.parametrize(
    "diag, sub",
    [
        ([[0.0, 1.0, 1.0]], [[0.0, 1.0, 1.0]]),  # zero first pivot
        ([[1.0, 1.0, 1.0]], [[0.0, 1.0, 1.0]]),  # second pivot 1 - 1*1 = 0
    ],
)
def test_tridiag_batch_singular_raises(diag, sub):
    diag, sub = np.array(diag), np.array(sub)
    with pytest.raises(FloatingPointError):
        TridiagBatch(sub, diag, np.ones_like(diag))


def test_heat_steps_build_no_stream_factorization(grid, monkeypatch):
    shapes = []

    class Counting(TridiagBatch):
        def __init__(self, sub, diag, sup):
            super().__init__(sub, diag, sup)
            shapes.append((self.M, self.n))

    monkeypatch.setattr(elliptic, "TridiagBatch", Counting)
    s = EllipticSolver(grid)
    f = bump_profile(grid.r, 1.3, 2.6)[:, None] * np.ones(grid.shape)
    for _ in range(3):
        f = s.heat_step(f, 0.01, "L1")
    assert len(shapes) == 1
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
    assert np.all(psi.values == 0.0)


def test_solve_stream_residual_and_walls(solver, grid):
    rng = np.random.default_rng(0)
    om = rng.normal(size=grid.shape)
    om[0] = 0.0
    om[-1] = 0.0
    psi = solver.solve_stream(om)
    assert solver.stream_residual(psi, om) < 1e-12
    assert np.all(psi.values[0] == 0.0)
    assert np.all(psi.values[-1] == 0.0)


def test_solve_stream_manufactured_second_order():
    psi_f, om_f = manufactured_pair(3.0, 2.0)
    errs = []
    for n in (33, 65):
        g = build_grid(1, 3, 2.0, n, n - 1)
        s = EllipticSolver(g)
        RR, ZZ = np.meshgrid(g.r, g.z, indexing="ij")
        psi = s.solve_stream(om_f(RR, ZZ))
        errs.append(np.max(np.abs(psi.values - psi_f(RR, ZZ))))
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
    assert np.allclose(psi.values[1:-1, 0], dense, atol=1e-12)
    assert np.allclose(psi.values, psi.values[:, :1], atol=1e-12)


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
@settings(max_examples=20, deadline=None)
def test_solve_stream_linearity(a, b):
    g = build_grid(1, 3, 2.0, 17, 16)
    s = EllipticSolver(g)
    rng = np.random.default_rng(42)
    om1 = rng.normal(size=g.shape)
    om2 = rng.normal(size=g.shape)
    lhs = s.solve_stream(a * om1 + b * om2).values
    rhs = a * s.solve_stream(om1).values + b * s.solve_stream(om2).values
    assert np.allclose(lhs, rhs, atol=1e-10 * (1 + abs(a) + abs(b)))


def test_heat_step_zero_and_consistency(solver, grid):
    z = solver.heat_step(np.zeros(grid.shape), 0.1, "L1")
    assert np.all(z == 0.0)
    f = bump_profile(grid.r, 1.3, 2.6)[:, None] * np.ones(grid.shape)
    diffs = []
    for dt in (2e-4, 1e-4):
        out = solver.heat_step(f, dt, "L1")
        diffs.append(np.max(np.abs(out - f)))
    assert diffs[0] / diffs[1] == pytest.approx(2.0, rel=0.05)


def test_heat_step_rejects_bad_args(solver, grid):
    f = np.zeros(grid.shape)
    with pytest.raises(ValueError):
        solver.heat_step(f, -0.1, "L0")
    with pytest.raises(ValueError):
        solver.heat_step(f, 0.1, "L7")
    with pytest.raises(ValueError):
        solver.heat_step(f, 0.1, "L0", scheme="rk4")


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
        for _ in range(steps):
            f = solver.heat_step(f, dt, "L0p")
        errs.append(np.max(np.abs(f[1:-1, 0] - exact_interior.real)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)


@given(
    vals=arrays(np.float64, (9, 8), elements=st.floats(-5, 5)),
    dt=st.floats(1e-4, 10.0),
    op=st.sampled_from(["L0", "L1", "L0p"]),
)
@settings(max_examples=40, deadline=None)
def test_backward_euler_sup_nonincreasing(vals, dt, op):
    # discrete maximum principle of the M-matrix system, any dt
    g = build_grid(1, 2, 1.0, 9, 8)
    s = EllipticSolver(g)
    out = s.heat_step(vals, dt, op, scheme="be")
    assert np.max(np.abs(out)) <= np.max(np.abs(vals)) * (1 + 1e-12) + 1e-12


def test_explicit_operator_matches_implicit_generator(grid, solver):
    # (heat_step(f) - f)/dt -> apply_heat_operator(f) as dt -> 0
    f = bump_profile(grid.r, 1.3, 2.6)[:, None] * np.cos(2 * np.pi * grid.z / grid.L_z)
    Bf = solver.apply_heat_operator(f, "L1")
    dt = 1e-7
    fd = (solver.heat_step(f, dt, "L1") - f) / dt
    assert np.allclose(fd, Bf, atol=1e-4 * (1 + np.max(np.abs(Bf))))


def test_explicit_stability_bound_positive(solver):
    for op in ("L0", "L1", "L0p"):
        assert 0 < solver.explicit_stability_bound(op) < 1.0


def test_commutation_trivial(solver, grid):
    assert commutation_check(solver, np.zeros(grid.shape), 0.05, 0.01) == 0.0
    gam = bump_profile(grid.r, 1.4, 2.5)[:, None] * np.ones(grid.shape)
    assert commutation_check(solver, gam, 0.0, 0.01) == 0.0


def test_commutation_refinement():
    devs = []
    for n, steps in ((17, 8), (33, 16), (65, 32)):
        g = build_grid(1, 3, 2.0, n, n - 1)
        s = EllipticSolver(g)
        gam = bump_profile(g.r, 1.4, 2.5)[:, None] * (
            1 + 0.3 * np.sin(2 * np.pi * g.z / g.L_z)[None, :]
        )
        devs.append(commutation_check(s, gam, 0.05, 0.05 / steps))
    assert devs[0] / devs[1] >= 3.0
    assert devs[1] / devs[2] >= 3.0


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
    fit = semigroup_decay_fit(s, "L1", f0, math.inf, 0, (0.05, 0.4), 0.005)
    assert abs(fit.exponent) < 0.03


def test_decay_fit_rejects_bad_window(solver, grid):
    f0 = np.ones(grid.shape)
    with pytest.raises(ValueError):
        semigroup_decay_fit(solver, "L0", f0, 2, 0, (0.5, 0.1), 0.01)
    with pytest.raises(ValueError):
        semigroup_decay_fit(solver, "L0", f0, 2, 2, (0.1, 0.5), 0.01)


def test_default_bc_pairings(grid):
    assert default_bc("L0", grid) == robin(1.0)
    assert default_bc("L1", grid) == robin(2.0)
    assert default_bc("L0p", grid) == DIRICHLET0


def test_semigroup_experiment_small():
    # a cheap scaled-down harness run: exponents land within a loose band
    cases = (("L1", 6.0, 0), ("L1", math.inf, 0))
    results = semigroup_experiment(
        n=129, dt=1 / 150.0, R=9.0, L_z=8.0, center=(5.0, 4.0), envelope=(2.5, 3.5), cases=cases
    )
    by_key = {(r.op, r.p, r.k): r for r in results}
    assert abs(by_key[("L1", 6.0, 0)].fitted - 0.25) < 0.1
    assert abs(by_key[("L1", math.inf, 0)].fitted) < 0.1
