import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axicyl.config import SolverConfig
from axicyl.elliptic import EllipticSolver
from axicyl.evolution import (
    CFLError,
    DriftSpec,
    Stepper,
    _coupled_rates,
    drift_diffusion_run,
    make_divergence_free_drift,
    picard_iterate,
    run_simulation,
    swirl_vorticity_source,
)
from axicyl.fields import bump_profile, make_initial_data, state_from_dynamic
from axicyl.grid import build_grid, lp_norm


@pytest.fixture(scope="module")
def small_grid():
    return build_grid(1, 3, 2.0, 33, 32)


@pytest.fixture(scope="module")
def small_solver(small_grid):
    return EllipticSolver(small_grid)


def make_cfg(**kw):
    base = dict(
        r_min=1.0,
        R=3.0,
        L_z=2.0,
        n_r=33,
        n_z=32,
        t_end=0.1,
        output_interval=0.02,
        init_kind="swirl_bump",
        amplitude=0.5,
        omega_amplitude=0.25,
        r_lo=1.3,
        r_hi=2.4,
        checkpoint="none",
    )
    base.update(kw)
    return SolverConfig(**base)


def test_zero_state_stays_zero(small_grid, small_solver):
    cfg = make_cfg(amplitude=0.0, omega_amplitude=0.0)
    state = make_initial_data(small_grid, "swirl_bump", amplitude=0.0, omega_amplitude=0.0,
                              solver=small_solver)
    stepper = Stepper(cfg, small_grid, small_solver, state)
    for _ in range(5):
        stepper.step(0.01)
    assert np.all(stepper.state.Gamma.values == 0.0)
    assert np.all(stepper.state.omega.values == 0.0)


def test_rhs_swirl_annihilates_r_squared(small_grid, small_solver):
    # with v = 0 the swirl right-hand side is L1 Gamma, and L1 r^2 = 0
    # discretely, including the Robin row, whose ghost extrapolation is
    # exact for r^2
    gamma = np.broadcast_to(small_grid.rcol**2, small_grid.shape).copy()
    state = state_from_dynamic(small_grid, 0.0, gamma, np.zeros(small_grid.shape), small_solver)
    assert np.all(state.ur.values == 0.0)
    out = small_solver.apply_heat_operator(gamma, "L1")
    assert np.allclose(out, 0.0, atol=1e-10)


def test_rhs_zero_state(small_grid, small_solver):
    zero = np.zeros(small_grid.shape)
    for advection in ("centered2", "upwind1"):
        for diffusion in ("crank_nicolson", "explicit"):
            cfg = make_cfg(advection=advection, diffusion=diffusion)
            state = state_from_dynamic(small_grid, 0.0, zero, zero, small_solver)
            stepper = Stepper(cfg, small_grid, small_solver, state)
            stepper.step(min(0.01, 0.5 * cfg.cfl * stepper.dt_bound()))
            assert np.all(stepper.state.Gamma.values == 0.0)
            assert np.all(stepper.state.omega.values == 0.0)


def test_rhs_vorticity_z_independent_swirl_has_no_source(small_grid, small_solver):
    gamma = 0.4 * np.broadcast_to(small_grid.rcol**2, small_grid.shape).copy()
    omega = bump_profile(small_grid.r, 1.3, 2.5)[:, None] * np.sin(
        2 * np.pi * small_grid.z / small_grid.L_z
    )
    state = state_from_dynamic(small_grid, 0.0, gamma, omega, small_solver)
    ur, uz = state.ur.values, state.uz.values
    _, with_swirl = _coupled_rates(small_grid, "centered2", gamma, omega, ur, uz, gamma)
    zero = np.zeros(small_grid.shape)
    _, without = _coupled_rates(small_grid, "centered2", zero, omega, ur, uz, zero)
    # z-independent Gamma contributes nothing: d_z(Gamma^2) = 0
    assert np.allclose(with_swirl, without, atol=1e-12)


def test_swirl_source_z_independent(small_grid):
    gamma = np.broadcast_to(small_grid.rcol**2, small_grid.shape).copy()
    assert np.allclose(swirl_vorticity_source(small_grid, gamma), 0.0, atol=1e-14)
    gamma_z = bump_profile(small_grid.r, 1.2, 2.5)[:, None] * np.sin(
        2 * np.pi * small_grid.z / small_grid.L_z
    )
    src = swirl_vorticity_source(small_grid, gamma_z)
    assert np.max(np.abs(src)) > 0


def test_no_swirl_invariance_and_monotone_enstrophy(small_grid, small_solver):
    cfg = make_cfg(init_kind="no_swirl_bump", amplitude=0.8, omega_amplitude=0.8)
    state = make_initial_data(
        small_grid, "no_swirl_bump", amplitude=0.8, omega_amplitude=0.8,
        r_support=(1.3, 2.4), solver=small_solver,
    )
    stepper = Stepper(cfg, small_grid, small_solver, state)
    prev = lp_norm(small_grid, state.omega.values / small_grid.rcol, 2)
    base = prev
    for _ in range(100):
        stepper.step(0.002)
        assert np.all(stepper.state.Gamma.values == 0.0)
        cur = lp_norm(small_grid, stepper.state.omega.values / small_grid.rcol, 2)
        assert cur <= prev + 1e-10 * base
        prev = cur


def test_cfl_violation_raises(small_grid, small_solver):
    cfg = make_cfg(diffusion="explicit", advection="upwind1")
    state = make_initial_data(small_grid, "swirl_bump", amplitude=1.0, solver=small_solver)
    stepper = Stepper(cfg, small_grid, small_solver, state)
    with pytest.raises(CFLError):
        stepper.step(1.0)


def test_blowup_detection():
    cfg = make_cfg(t_end=1.0, amplitude=1e9, omega_amplitude=1e9, blowup_threshold=1e3)
    result = run_simulation(cfg)
    assert result.status == "halted_blowup"
    assert result.records[-1].t < 1.0


def test_run_simulation_t_end_zero():
    cfg = make_cfg(t_end=0.0)
    result = run_simulation(cfg)
    assert len(result.records) == 1
    assert result.records[0].t == 0.0


def test_run_simulation_deterministic():
    cfg = make_cfg(init_kind="random_modes", seed=5, t_end=0.05)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    ra = [r.csv_row() for r in a.records]
    rb = [r.csv_row() for r in b.records]
    assert ra == rb


def test_swirl_max_principle_default_scheme():
    cfg = make_cfg(t_end=0.2, amplitude=1.0)
    result = run_simulation(cfg)
    sup0 = result.records[0].sup_gamma
    for rec in result.records:
        assert rec.margin_1_6 <= 1e-6 * sup0


@given(
    gamma0=arrays(np.float64, (16, 16), elements=st.floats(-2, 2)),
    omega0=arrays(np.float64, (16, 16), elements=st.floats(-3, 3)),
    steps=st.integers(1, 4),
)
@settings(max_examples=25, deadline=None)
def test_monotone_scheme_exact_max_principle(gamma0, omega0, steps):
    # brute-force check on a 16x16 grid: upwind + explicit never amplifies
    # sup|Gamma|, for arbitrary (rough) data and self-consistent velocities
    g = build_grid(1, 2, 1.0, 16, 16)
    solver = EllipticSolver(g)
    cfg = SolverConfig(
        r_min=1, R=2, L_z=1, n_r=16, n_z=16,
        advection="upwind1", diffusion="explicit", cfl=0.95,
        t_end=1.0, init_kind="swirl_bump", checkpoint="none",
    )
    state = state_from_dynamic(g, 0.0, gamma0, omega0, solver=solver)
    stepper = Stepper(cfg, g, solver, state)
    sup0 = np.max(np.abs(state.Gamma.values))
    for _ in range(steps):
        dt = 0.9 * stepper.dt_bound()
        stepper.step(dt)
        assert np.max(np.abs(stepper.state.Gamma.values)) <= sup0 * (1 + 1e-13) + 1e-15


def test_drift_diffusion_zero_drift_sup_nonincreasing(small_grid, small_solver):
    gamma0 = bump_profile(small_grid.r, 1.3, 2.5)[:, None] * np.ones(small_grid.shape)
    drift = DriftSpec(np.zeros(small_grid.shape), np.zeros(small_grid.shape))
    recs = drift_diffusion_run(small_solver, gamma0, drift, t_end=0.2, dt=0.002)
    sups = [r.sup for r in recs]
    assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))


def test_drift_diffusion_positivity(small_grid, small_solver):
    gamma0 = bump_profile(small_grid.r, 1.3, 2.5)[:, None] * np.ones(small_grid.shape)
    br, bz = make_divergence_free_drift(small_grid, 0.5, (1.2, 2.6))
    drift = DriftSpec(br, bz)
    recs = drift_diffusion_run(
        small_solver, gamma0, drift, t_end=0.2, advection="upwind1", diffusion="explicit"
    )
    for rec in recs:
        assert rec.inf >= -1e-13
        assert rec.sup <= 1.0 + 1e-13


def test_drift_diffusion_modulated_coefficient(small_grid, small_solver):
    gamma0 = bump_profile(small_grid.r, 1.3, 2.5)[:, None] * np.ones(small_grid.shape)
    br, bz = make_divergence_free_drift(small_grid, 0.3, (1.2, 2.6))
    drift = DriftSpec(br, bz, modulation_p=6.0, t_floor=1e-3)
    recs = drift_diffusion_run(
        small_solver, gamma0, drift, t_end=0.1, advection="upwind1", diffusion="explicit"
    )
    assert recs[-1].sup <= recs[0].sup + 1e-13


def test_drift_requires_no_penetration(small_grid, small_solver):
    bad = np.ones(small_grid.shape)
    drift = DriftSpec(bad, np.zeros(small_grid.shape))
    with pytest.raises(ValueError):
        drift_diffusion_run(small_solver, np.zeros(small_grid.shape), drift, t_end=0.1)


def test_picard_zero_data(small_grid, small_solver):
    state0 = make_initial_data(
        small_grid, "swirl_bump", amplitude=0.0, omega_amplitude=0.0, solver=small_solver
    )
    res = picard_iterate(small_solver, state0, T=0.05, j_max=3, p=6.0, dt=0.01)
    assert all(k == 0.0 for k in res.K)
    assert all(d == 0.0 for d in res.delta)
    assert not res.diverged


def test_picard_first_iterate_scales_linearly(small_grid, small_solver):
    def build(lam):
        return make_initial_data(
            small_grid, "swirl_bump", amplitude=0.2 * lam, omega_amplitude=0.1 * lam,
            r_support=(1.3, 2.4), solver=small_solver,
        )

    r1 = picard_iterate(small_solver, build(1.0), T=0.05, j_max=2, p=6.0, dt=0.01)
    r3 = picard_iterate(small_solver, build(3.0), T=0.05, j_max=2, p=6.0, dt=0.01)
    assert r3.K[0] == pytest.approx(3.0 * r1.K[0], rel=1e-12)


def test_picard_small_data_contracts(small_grid, small_solver):
    state0 = make_initial_data(
        small_grid, "swirl_bump", amplitude=0.2, omega_amplitude=0.1,
        r_support=(1.3, 2.4), solver=small_solver,
    )
    res = picard_iterate(small_solver, state0, T=0.1, j_max=5, p=6.0, dt=0.005)
    assert not res.diverged
    assert all(r < 1.0 for r in res.ratios)


def test_picard_validates_args(small_grid, small_solver):
    state0 = make_initial_data(small_grid, "swirl_bump", amplitude=0.1, solver=small_solver)
    with pytest.raises(ValueError):
        picard_iterate(small_solver, state0, T=0.0, j_max=3, p=6.0, dt=0.01)
    with pytest.raises(ValueError):
        picard_iterate(small_solver, state0, T=0.1, j_max=3, p=2.0, dt=0.01)


def test_drift_diffusion_matches_heat_step_without_drift(small_grid, small_solver):
    f0 = bump_profile(small_grid.r, 1.3, 2.5)[:, None] * np.ones(small_grid.shape)
    zero = np.zeros(small_grid.shape)
    recs = drift_diffusion_run(small_solver, f0, DriftSpec(zero, zero), t_end=0.05, dt=0.01)
    # with zero drift each step is two Crank-Nicolson half steps
    ref = f0
    for _ in range(10):
        ref = small_solver.heat_step(ref, 0.005, "L1")
    last = recs[-1]
    assert last.t == pytest.approx(0.05)
    assert last.sup == pytest.approx(np.max(ref), abs=1e-13)
    assert last.inf == pytest.approx(np.min(ref), abs=1e-13)
    for p, val in last.norms.items():
        assert val == pytest.approx(lp_norm(small_grid, ref, p), rel=1e-13)


def test_accumulated_budget_nonnegative_terms():
    cfg = make_cfg(t_end=0.1)
    result = run_simulation(cfg)
    last = result.records[-1]
    assert last.diss_v >= 0
    assert last.diss_uth >= 0
    assert last.diss_swirl_weight >= 0
    assert last.bdry_flux >= 0
    # accumulators are non-decreasing along the series
    for a, b in zip(result.records, result.records[1:]):
        assert b.diss_v >= a.diss_v - 1e-15
        assert b.bdry_flux >= a.bdry_flux - 1e-15
