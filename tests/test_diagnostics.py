import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import run_config
from hypothesis import given, settings
from hypothesis import strategies as st

from axicyl.config import SolverConfig
from axicyl.diagnostics import (
    _velocity_gradient_integral,
    boundary_leakage,
    dissipation_sample,
    energy_budget_check,
    eps_sweep,
    full_velocity_gradient_squared,
    gagliardo_nirenberg_ratio,
    identity_5_3_check,
    inequality_reports,
    random_scalar_samples,
    sigma_exponent,
    state_inequality_ratios,
    vorticity_budgets_check,
)
from axicyl.elliptic import EllipticSolver
from axicyl.evolution import Stepper
from axicyl.fields import bump_profile, make_initial_data, state_from_dynamic
from axicyl.grid import build_grid, ddr, ddz, lp_norm, weighted_integral


def grad_v_squared(g, ur, uz):
    """|grad v|^2 pointwise for v = (u_r, u_z), with the u_r/r metric term:
    the reference for the row-sum integral."""
    return (
        ddr(g, ur) ** 2 + ddz(g, ur) ** 2 + (ur / g.rcol) ** 2 + ddr(g, uz) ** 2 + ddz(g, uz) ** 2
    )


def state_ratios(states):
    """Each inequality's ratio per state, in state order."""
    ratios = {}
    for st_ in states:
        for key, val in state_inequality_ratios(st_).items():
            ratios.setdefault(key, []).append(val)
    return ratios


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


def test_ratio_5_3_reads_the_one_gradient_integral(sample_states):
    # E5_3, the ledger and identity_5_3_check integrate |grad v|^2 one way
    for st_ in sample_states:
        g = st_.grid
        grad_v = math.sqrt(_velocity_gradient_integral(g, st_.ur, st_.uz))
        assert state_inequality_ratios(st_)["E5_3"] == grad_v / lp_norm(g, st_.omega, 2)


def test_full_velocity_gradient_squared_sums_v_then_swirl(sample_states):
    # Picard's norms read this sum: |grad v|^2's five terms, then u_th's three
    for st_ in sample_states[:2]:
        g, ur, uth, uz = st_.grid, st_.ur, st_.uth, st_.uz
        expect = (
            grad_v_squared(g, ur, uz) + ddr(g, uth) ** 2 + ddz(g, uth) ** 2 + (uth / g.rcol) ** 2
        )
        assert np.array_equal(full_velocity_gradient_squared(g, ur, uth, uz), expect)


@pytest.mark.parametrize("amplitude", [1e160, 1e300])
def test_inequality_ratios_past_overflow_are_the_unit_amplitude_ratios(amplitude):
    # |u| past about 1e154 overflows the integrals of squares; every ratio is
    # homogeneous of degree 0 in the fields, so it must not move
    cfg = SolverConfig(
        R=4.0, n_r=17, n_z=16, init_kind="random_modes", r_lo=1.3, r_hi=3.2, seed=3
    )
    solver = EllipticSolver(cfg.grid)
    unit = state_inequality_ratios(make_initial_data(solver, cfg))
    large_state = make_initial_data(solver, replace(cfg, amplitude=amplitude))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        large = state_inequality_ratios(large_state)
    assert large.keys() == unit.keys()
    for key, ratio in unit.items():
        assert math.isfinite(ratio), key
        assert large[key] == pytest.approx(ratio, rel=1e-12), key


def test_ratio_5_7_is_exact_identity(sample_states):
    for st_ in sample_states:
        ratios = state_inequality_ratios(st_)
        assert ratios["E5_7"] == pytest.approx(1.0, abs=1e-12)


def test_constant_free_inequalities_hold(sample_states, grid):
    reports = inequality_reports(state_ratios(sample_states), {}, {})
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
        gagliardo_nirenberg_ratio(grid, phi, 2.0, 4.0, use_full_norm=False)


def test_interpolation_suite_fitted_constants_stable(grid):
    def fitted(seed):
        fields = random_scalar_samples(grid, 40, seed=seed, vanish_at_wall=True)
        ratios = [gagliardo_nirenberg_ratio(grid, phi, 2.0, 4.0, False) for phi in fields]
        return inequality_reports({"B1": ratios}, {}, {})[0].max_ratio

    ca, cb = fitted(1), fitted(2)
    assert abs(ca - cb) / max(ca, cb) < 0.2


def test_zero_state_ratios_skipped(grid, solver):
    zero = state_from_dynamic(solver, 0.0, np.zeros(grid.shape), np.zeros(grid.shape))
    reports = inequality_reports(state_ratios([zero]), {}, {})
    assert all(r.n_samples == 0 for r in reports) or reports == []


def test_vorticity_budget_report_no_swirl():
    cfg = SolverConfig(
        r_min=1, R=4, L_z=2, n_r=65, n_z=32, dt=0.002, t_end=0.2,
        output_interval=0.02, init_kind="no_swirl_bump", amplitude=1.0,
        omega_amplitude=1.0, r_lo=1.4, r_hi=2.8,
    )
    res = run_config(cfg)
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
        vorticity_budgets_check([])


def test_record_h1_and_leakage_finite(sample_states):
    # the record takes h1 and dev_5_3 from the step's dissipation sample;
    # they must be those of the state it records, before and after a step
    # (the stepper keeps the largest h1 it recorded, here of one record)
    cfg = SolverConfig(r_min=1, R=4, L_z=2, n_r=49, n_z=32, dt=0.004)
    for st_ in sample_states[:3]:
        stepper = Stepper(cfg, st_)
        for _ in range(2):
            stepper.max_h1 = 0.0
            state, rec = stepper.state, stepper.record()
            g = state.grid
            grads = weighted_integral(
                g, grad_v_squared(g, state.ur, state.uz)
            ) + weighted_integral(g, ddr(g, state.uth) ** 2 + ddz(g, state.uth) ** 2)
            h1 = math.sqrt(state.kinetic_energy() + grads)
            assert math.isfinite(stepper.max_h1)
            assert stepper.max_h1 == pytest.approx(h1, rel=1e-14)
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
            weighted_integral(g, grad_v_squared(g, st_.ur, st_.uz)),
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
        omega_amplitude=0.8, r_lo=1.4, r_hi=2.8,
    )
    summaries = eps_sweep(template, [1.0])
    assert len(summaries) == 1
    s = summaries[0]
    assert s.status == "completed"
    direct = run_config(template)
    assert s.res_energy_6_1 == pytest.approx(energy_budget_check(direct.records), rel=1e-12)
    assert s.sup_h1_proxy == pytest.approx(direct.max_h1, rel=1e-12)


def test_eps_sweep_rejects_data_below_one():
    template = SolverConfig(
        r_min=1.0, R=4, L_z=2, n_r=49, n_z=32, t_end=0.05,
        init_kind="no_swirl_bump", r_lo=0.8, r_hi=2.0,
    )
    with pytest.raises(ValueError):
        eps_sweep(template, [0.5])
