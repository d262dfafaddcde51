import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axicyl.config import SolverConfig
from axicyl.diagnostics import (
    boundary_leakage,
    dissipation_sample,
    energy_budget_check,
    eps_sweep,
    gagliardo_nirenberg_ratio,
    identity_5_3_check,
    interpolation_suite,
    random_scalar_samples,
    sigma_exponent,
    state_inequality_ratios,
    swirl_bounds_check,
    velocity_gradient_squared,
    vorticity_budgets_check,
)
from axicyl.elliptic import EllipticSolver
from axicyl.evolution import Stepper, run_simulation
from axicyl.fields import bump_profile, make_initial_data, state_from_dynamic
from axicyl.grid import build_grid, ddr, ddz, weighted_integral


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 4, 2.0, 49, 32)


@pytest.fixture(scope="module")
def solver(grid):
    return EllipticSolver(grid)


@pytest.fixture(scope="module")
def sample_states(grid, solver):
    return [
        make_initial_data(
            solver, SolverConfig(init_kind="random_modes", seed=s, r_lo=1.4, r_hi=3.2)
        )
        for s in range(8)
    ]


def test_identity_5_3_zero(grid, solver):
    zero = state_from_dynamic(solver, 0.0, np.zeros(grid.shape), np.zeros(grid.shape))
    assert identity_5_3_check(zero) == 0.0


def test_identity_5_3_compact_vorticity():
    # compact omega far from the truncation wall: ||grad v||_2 ~ ||omega||_2;
    # the 1e-2 tolerance is stated at the 128-class resolution
    devs = []
    for n in (65, 129):
        g = build_grid(1, 5, 2.0, n, (n - 1) // 2)
        s = EllipticSolver(g)
        om = bump_profile(g.r, 1.5, 3.0)[:, None] * np.sin(2 * np.pi * g.z / g.L_z)
        state = state_from_dynamic(s, 0.0, np.zeros(g.shape), om)
        devs.append(identity_5_3_check(state))
    assert devs[1] < 1e-2
    assert devs[1] < devs[0]


def test_identity_5_3_truncation_insensitive():
    # for wall-clear compact omega both boundary terms of the identity vanish
    # on the truncated domain too, so growing R changes nothing beyond
    # discretization noise (the h error is what converges)
    devs = []
    for R in (4.0, 6.0):
        n = int(32 * (R - 1)) + 1
        g = build_grid(1, R, 2.0, n, 32)
        s = EllipticSolver(g)
        om = bump_profile(g.r, 1.4, 2.6)[:, None] * (
            0.6 + np.sin(2 * np.pi * g.z / g.L_z)
        )
        state = state_from_dynamic(s, 0.0, np.zeros(g.shape), om)
        devs.append(identity_5_3_check(state))
    assert devs[1] <= devs[0] * 1.05


def test_ratio_5_7_is_exact_identity(sample_states):
    for st_ in sample_states:
        ratios = state_inequality_ratios(st_)
        assert ratios["E5_7"] == pytest.approx(1.0, abs=1e-12)


def test_constant_free_inequalities_hold(sample_states, grid):
    reports = interpolation_suite(grid, sample_states, 2.0, 4.0)
    by_id = {r.inequality: r for r in reports}
    for key in ("E1_7", "E5_8", "E5_8_chain", "E5_7"):
        assert by_id[key].n_violations == 0, key


def test_swirl_chain_exact_in_quadrature(sample_states):
    # ||u_th||_4^4 <= sup|Gamma|^2 ||u_th/r||_2^2 holds pointwise in the
    # quadrature, so the ratio never exceeds 1
    for st_ in sample_states:
        ratios = state_inequality_ratios(st_)
        assert ratios["E5_8_chain"] <= 1.0 + 1e-12
        assert ratios["E5_8"] <= 1.0 + 1e-12


def test_sigma_exponent_validation():
    assert sigma_exponent(2, 4) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        sigma_exponent(1, 6)  # sigma = 3 * (1 - 1/6) > 1
    with pytest.raises(ValueError):
        sigma_exponent(4, 2)


@given(lam=st.floats(0.1, 50))
@settings(max_examples=20, deadline=None)
def test_gagliardo_nirenberg_scale_invariance(lam):
    g = build_grid(1, 4, 2.0, 33, 16)
    phi = bump_profile(g.r, 1.4, 3.2)[:, None] * np.cos(2 * np.pi * g.z / g.L_z)
    base = gagliardo_nirenberg_ratio(g, phi, 2, 4, use_full_norm=False)
    scaled = gagliardo_nirenberg_ratio(g, lam * phi, 2, 4, use_full_norm=False)
    assert scaled == pytest.approx(base, rel=1e-9)


def test_b1_requires_vanishing_trace(grid):
    phi = np.ones(grid.shape)
    with pytest.raises(ValueError):
        interpolation_suite(grid, [], 2.0, 4.0, scalar_samples_b1=[phi])


def test_interpolation_suite_fitted_constants_stable(grid):
    b1a = random_scalar_samples(grid, 40, seed=1, vanish_at_wall=True)
    b1b = random_scalar_samples(grid, 40, seed=2, vanish_at_wall=True)
    ca = interpolation_suite(grid, [], 2.0, 4.0, scalar_samples_b1=b1a)[0].max_ratio
    cb = interpolation_suite(grid, [], 2.0, 4.0, scalar_samples_b1=b1b)[0].max_ratio
    assert abs(ca - cb) / max(ca, cb) < 0.2


def test_zero_state_ratios_skipped(grid, solver):
    zero = state_from_dynamic(solver, 0.0, np.zeros(grid.shape), np.zeros(grid.shape))
    reports = interpolation_suite(grid, [zero], 2.0, 4.0)
    assert all(r.n_samples == 0 for r in reports) or reports == []


def test_vorticity_budget_report_no_swirl():
    cfg = SolverConfig(
        r_min=1, R=4, L_z=2, n_r=65, n_z=32, dt=0.002, t_end=0.2,
        output_interval=0.02, init_kind="no_swirl_bump", amplitude=1.0,
        omega_amplitude=1.0, r_lo=1.4, r_hi=2.8, checkpoint="none",
    )
    res = run_simulation(cfg)
    report = vorticity_budgets_check(res.records)
    assert report.max_violation_1_11 <= 1e-10
    # the 1e-3 closure residual is an acceptance-resolution statement; this
    # coarse grid verifies the same budget at its own scheme-order level
    assert report.closure_residual_no_swirl < 1e-2
    assert report.max_step_increase_om_over_r <= 1e-10
    assert math.isfinite(report.fitted_c_1_12)


def test_energy_and_swirl_checks_raise_on_empty():
    with pytest.raises(ValueError):
        energy_budget_check([])
    with pytest.raises(ValueError):
        swirl_bounds_check([])
    with pytest.raises(ValueError):
        vorticity_budgets_check([])


def test_record_h1_and_leakage_finite(sample_states):
    # the record takes h1 and dev_5_3 from the step's dissipation sample;
    # they must be those of the state it records, before and after a step
    cfg = SolverConfig(r_min=1, R=4, L_z=2, n_r=49, n_z=32, dt=0.004, checkpoint="none")
    for st_ in sample_states[:3]:
        stepper = Stepper(cfg, st_)
        for _ in range(2):
            state, rec = stepper.state, stepper.record()
            g = state.grid
            grads = weighted_integral(
                g, velocity_gradient_squared(g, state.ur, state.uz)
            ) + weighted_integral(g, ddr(g, state.uth) ** 2 + ddz(g, state.uth) ** 2)
            assert math.isfinite(rec.h1)
            assert rec.h1 == pytest.approx(math.sqrt(state.kinetic_energy() + grads), rel=1e-14)
            assert rec.dev_5_3 == identity_5_3_check(state)
            assert boundary_leakage(state) >= 0.0
            stepper.step(0.004)


def test_dissipation_sample_matches_the_pointwise_quadrature(sample_states):
    # the sample sums squares by rows; the reference squares the stencils
    # pointwise and integrates them with weighted_integral
    for st_ in sample_states:
        g, uth, om = st_.grid, st_.uth, st_.omega
        q = om / g.rcol

        def grad_sq(f):
            return ddr(g, f) ** 2 + ddz(g, f) ** 2

        expect = (
            weighted_integral(g, velocity_gradient_squared(g, st_.ur, st_.uz)),
            weighted_integral(g, grad_sq(uth)),
            weighted_integral(g, (uth / g.rcol) ** 2),
            4.0 * math.pi * g.h_z * float(np.sum(uth[0] ** 2)),
            weighted_integral(g, grad_sq(q)),
            weighted_integral(g, grad_sq(om) + q**2),
        )
        assert dissipation_sample(st_) == pytest.approx(expect, rel=1e-13, abs=0.0)


def test_eps_sweep_single_eps_matches_run():
    template = SolverConfig(
        r_min=1.0, R=4, L_z=2, n_r=49, n_z=32, dt=0.004, t_end=0.1,
        output_interval=0.02, init_kind="no_swirl_bump", amplitude=0.8,
        omega_amplitude=0.8, r_lo=1.4, r_hi=2.8, checkpoint="none",
    )
    summaries = eps_sweep(template, [1.0])
    assert len(summaries) == 1
    s = summaries[0]
    assert s.status == "completed"
    direct = run_simulation(template)
    assert s.res_energy_6_1 == pytest.approx(energy_budget_check(direct.records), rel=1e-12)
    assert s.sup_h1_proxy == pytest.approx(max(r.h1 for r in direct.records), rel=1e-12)


def test_eps_sweep_rejects_data_below_one():
    template = SolverConfig(
        r_min=1.0, R=4, L_z=2, n_r=49, n_z=32, t_end=0.05,
        init_kind="no_swirl_bump", r_lo=0.8, r_hi=2.0, checkpoint="none",
    )
    with pytest.raises(ValueError):
        eps_sweep(template, [0.5])
