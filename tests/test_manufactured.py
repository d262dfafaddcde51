"""The manufactured term table against its sympy derivation, the bound
fields against the symbolic ones, and both against the scheme."""

import numpy as np
import pytest
import sympy as sp
from mms_derivation import derive_fields, derive_rows, mismatches

from axicyl import evolution
from axicyl.elliptic import EllipticSolver, pin
from axicyl.evolution import _coupled_rates
from axicyl.fields import state_from_dynamic
from axicyl.grid import build_grid, lp_norm
from axicyl.manufactured import N_DERIVS, TERMS, build_mms


@pytest.fixture(scope="module")
def mms():
    return build_mms()


def test_term_table_matches_its_derivation():
    # the same 55 terms (Gamma* 2, omega* 6, S_Gamma 13, S_omega 34) with
    # the same exponents, and each c within 1e-15 relative
    assert len(derive_rows()) == len(TERMS) == 55
    assert mismatches(TERMS) == []


def test_separable_fields_match_the_symbolic_fields_pointwise(mms):
    # the unexpanded fields, with the profile as the Piecewise bump and its
    # derivatives taken by sympy, evaluated by .subs at grid nodes in and
    # outside the bump's support (r < 1.12 or r > 1.88)
    r, z, t = sp.symbols("r z t", real=True)
    p = sp.symbols(f"p0:{N_DERIVS}")
    lo, hi = mms.support
    bump = sp.Piecewise(
        (((r - lo) * (hi - r)) ** 8 / ((hi - lo) / 2) ** 16, (r > lo) & (r < hi)), (0, True)
    )
    profile = {p[k]: sp.diff(bump, r, k) for k in range(N_DERIVS)}
    grid = build_grid(mms.r_min, mms.R, mms.L_z, 33, 32)
    bound = mms.bind(grid)
    rows = [0, 2, 3, 4, 5, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 27, 28, 29, 31, 32]
    cols = np.random.default_rng(0).integers(0, grid.n_z, len(rows))
    times = np.linspace(0.0, 1.5, len(rows))
    assert any(not lo < grid.r[i] < hi for i in rows)
    for name, expr in derive_fields().items():
        exact = expr.subs(profile)
        for i, j, tt in zip(rows, cols, times):
            want = float(exact.subs({r: grid.r[i], z: grid.z[j], t: tt}))
            got = bound[name](tt)
            assert abs(got[i, j] - want) <= 1e-12 * np.abs(got).max(), (name, i, j, tt)


def _truncation_residuals(mms, n, t=0.1, dt=1e-4):
    """The scheme's semi-discrete right-hand side at the exact (Gamma*,
    omega*), plus the sources, minus d_t of the exact fields (a centred
    difference): zero up to the truncation error."""
    grid = build_grid(mms.r_min, mms.R, mms.L_z, n + 1, n)
    solver = EllipticSolver(grid)
    bound = mms.bind(grid)
    state = state_from_dynamic(solver, t, bound["gamma"](t), bound["omega"](t))
    rates = _coupled_rates(
        grid, "strang_cn", state.Gamma, state.omega, state.ur, state.uz, state.Gamma
    )
    out = []
    for name, rate, op in zip(("gamma", "omega"), rates, ("L1", "L0p")):
        exact = bound[name](t)
        d_t = (bound[name](t + dt) - bound[name](t - dt)) / (2 * dt)
        res = rate + solver.apply_heat_operator(exact, op) + bound["source_" + name](t) - d_t
        out.append(pin(res, op))
    return grid, out


def _second_order_consistent(mms) -> bool:
    """The residual falls about 4x from 65x64 to 129x128, and what is left
    of the coarse one beyond 4x the fine one (at the shared nodes) is under
    1 % of it (0.5 % measured): a residual that is O(h^2) and nothing else."""
    grid, coarse = _truncation_residuals(mms, 64)
    _, fine = _truncation_residuals(mms, 128)
    ok = True
    for c, f in zip(coarse, fine):
        f = f[::2, ::2]
        size = lp_norm(grid, c, 2)
        ok &= 3.8 <= size / lp_norm(grid, f, 2) <= 4.2
        ok &= lp_norm(grid, c - 4 * f, 2) <= 0.01 * size
    return ok


def test_truncation_residual_is_second_order_and_sees_a_missing_swirl_feed(mms, monkeypatch):
    assert _second_order_consistent(mms)
    # the feed d_z(Gamma^2)/r^3 is about 3 % of the omega residual at
    # 129x128, so the 4x fall alone barely moves (4.0 -> 3.9) without it;
    # the h^2 remainder grows from 0.5 % to 6 %
    monkeypatch.setattr(
        evolution, "swirl_vorticity_source", lambda grid, gamma: np.zeros_like(gamma)
    )
    assert not _second_order_consistent(mms)
