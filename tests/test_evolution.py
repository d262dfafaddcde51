import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axicyl import evolution
from axicyl.config import SCHEMES, SolverConfig
from axicyl.elliptic import EllipticSolver
from axicyl.evolution import (
    BlowupError,
    CFLError,
    Stepper,
    _coupled_rates,
    picard_experiment,
    picard_iterate,
    run_simulation,
    swirl_vorticity_source,
)
from axicyl.fields import STATE_FIELDS, bump_profile, make_initial_data, state_from_dynamic
from axicyl.grid import build_grid, lp_norm
from axicyl.manufactured import build_mms, mms_convergence_study


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
    state = make_initial_data(small_solver, cfg)
    stepper = Stepper(cfg, state)
    for _ in range(5):
        stepper.step(0.01)
    assert np.all(stepper.state.Gamma == 0.0)
    assert np.all(stepper.state.omega == 0.0)


def test_rhs_swirl_annihilates_r_squared(small_grid, small_solver):
    # with v = 0 the swirl right-hand side is L1 Gamma, and L1 r^2 = 0
    # discretely, including the Robin row, whose ghost extrapolation is
    # exact for r^2
    gamma = np.broadcast_to(small_grid.rcol**2, small_grid.shape).copy()
    state = state_from_dynamic(small_solver, 0.0, gamma, np.zeros(small_grid.shape))
    assert np.all(state.ur == 0.0)
    out = small_solver.apply_heat_operator(gamma, "L1")
    assert np.allclose(out, 0.0, atol=1e-10)


def test_heat_operator_wall_rows(small_grid, small_solver):
    # L0 r = 0 discretely, including the Robin row: its condition
    # d_r f = f / r_min holds exactly for f = r
    r = np.broadcast_to(small_grid.rcol, small_grid.shape).copy()
    assert np.allclose(small_solver.apply_heat_operator(r, "L0"), 0.0, atol=1e-10)
    # L0' has a Dirichlet wall: its inner-wall row maps any field to 0
    f = np.random.default_rng(1).normal(size=small_grid.shape)
    assert np.all(small_solver.apply_heat_operator(f, "L0p")[0] == 0.0)


def test_rhs_zero_state(small_grid, small_solver):
    zero = np.zeros(small_grid.shape)
    for scheme in SCHEMES:
        cfg = make_cfg(scheme=scheme)
        state = state_from_dynamic(small_solver, 0.0, zero, zero)
        stepper = Stepper(cfg, state)
        stepper.step(min(0.01, 0.5 * cfg.cfl * stepper.dt_bound()))
        assert np.all(stepper.state.Gamma == 0.0)
        assert np.all(stepper.state.omega == 0.0)


def test_rhs_vorticity_z_independent_swirl_has_no_source(small_grid, small_solver):
    gamma = 0.4 * np.broadcast_to(small_grid.rcol**2, small_grid.shape).copy()
    omega = bump_profile(small_grid.r, 1.3, 2.5)[:, None] * np.sin(
        2 * np.pi * small_grid.z / small_grid.L_z
    )
    state = state_from_dynamic(small_solver, 0.0, gamma, omega)
    ur, uz = state.ur, state.uz
    _, with_swirl = _coupled_rates(small_grid, "strang_cn", gamma, omega, ur, uz, gamma)
    zero = np.zeros(small_grid.shape)
    _, without = _coupled_rates(small_grid, "strang_cn", zero, omega, ur, uz, zero)
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
    state = make_initial_data(small_solver, cfg)
    stepper = Stepper(cfg, state)
    prev = lp_norm(small_grid, state.omega / small_grid.rcol, 2)
    base = prev
    for _ in range(100):
        stepper.step(0.002)
        assert np.all(stepper.state.Gamma == 0.0)
        cur = lp_norm(small_grid, stepper.state.omega / small_grid.rcol, 2)
        assert cur <= prev + 1e-10 * base
        prev = cur


def test_cfl_violation_raises(small_grid, small_solver):
    cfg = make_cfg(scheme="monotone")
    state = make_initial_data(small_solver, SolverConfig(amplitude=1.0))
    stepper = Stepper(cfg, state)
    with pytest.raises(CFLError):
        stepper.step(1.0)


def test_blowup_detection():
    cfg = make_cfg(t_end=1.0, amplitude=1e9, omega_amplitude=1e9, blowup_threshold=1e3)
    result = run_simulation(cfg)
    assert result.status == "halted_blowup"
    assert result.records[-1].t < 1.0


def test_non_finite_stage_ends_the_step_as_blowup(small_solver):
    # a NaN source at the first Heun stage makes the second stage's stream
    # solve non-finite; the step must end in the end-of-step check
    cfg = make_cfg(dt=0.005)
    zero = np.zeros(small_solver.grid.shape)
    nan = np.full(small_solver.grid.shape, np.nan)
    sources = (lambda t: zero, lambda t: nan)
    state = make_initial_data(small_solver, cfg)
    with pytest.raises(BlowupError, match="non-finite"):
        Stepper(cfg, state, sources).step(0.005)
    result = run_simulation(cfg, sources=sources, initial_state=state)
    assert result.status == "halted_blowup"
    assert result.final_state is state


def test_nan_in_gamma_ends_the_step_as_blowup(small_solver):
    cfg = make_cfg(dt=0.005)
    zero = np.zeros(small_solver.grid.shape)
    nan = np.full(small_solver.grid.shape, np.nan)
    state = make_initial_data(small_solver, cfg)
    with pytest.raises(BlowupError, match="non-finite"):
        Stepper(cfg, state, (lambda t: nan, lambda t: zero)).step(0.005)


@pytest.mark.parametrize("name", ["psi", "ur", "uth", "uz"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_derived_field_still_raises(name, bad, small_solver, monkeypatch):
    # the stepped state is built unchecked (fields.assemble_state); the
    # step's one check pass must still reject each derived field, as the
    # state's construction does
    assemble = evolution.assemble_state

    def spoiled(*args):
        state = assemble(*args)
        getattr(state, name)[3, 4] = bad
        return state

    monkeypatch.setattr(evolution, "assemble_state", spoiled)
    state = make_initial_data(small_solver, make_cfg())
    with pytest.raises(ValueError, match=f"{name} contains non-finite values"):
        Stepper(make_cfg(), state).step(0.005)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stepped_state_and_its_sups_match_the_checked_path(scheme, small_solver):
    # the step builds its state without copies or a construction check and
    # takes every sup from one max/min pass: the state must be
    # state_from_dynamic's bit for bit, the sups lp_norm(., inf)'s, and
    # dt_bound the formula on max|u_r| and max|u_z|
    g = small_solver.grid
    dt = 0.005 if scheme == "strang_cn" else 1e-4
    cfg = make_cfg(dt=dt, amplitude=2.0, scheme=scheme)
    stepper = Stepper(cfg, make_initial_data(small_solver, cfg))
    stepper.record()
    for _ in range(5):
        stepper.step(dt)
        st_ = stepper.state
        omega_hat = stepper._carried[1][1] if scheme == "strang_cn" else None
        ref = state_from_dynamic(small_solver, st_.t, st_.Gamma, st_.omega, omega_hat)
        for name in STATE_FIELDS:
            assert np.array_equal(getattr(st_, name), getattr(ref, name)), name
        assert stepper.sups() == {n: lp_norm(g, getattr(ref, n), np.inf) for n in STATE_FIELDS}
        vr, vz = np.max(np.abs(ref.ur)), np.max(np.abs(ref.uz))
        if scheme == "strang_cn":
            expect = min(g.h_r / vr, g.h_z / vz)
        else:
            rate = 1.0 / min(
                small_solver.explicit_stability_bound("L1"),
                small_solver.explicit_stability_bound("L0p"),
            )
            expect = 1.0 / (rate + vr / g.h_r + vz / g.h_z)
        assert stepper.dt_bound() == expect


def test_blowup_threshold_halts_at_the_first_step_over_it(small_solver):
    # a swirl source makes sup|Gamma| grow every step; a threshold between
    # the sups after steps 6 and 7, by lp_norm, must halt the run at step 7
    # with every-step records and a final state equal to those of a stepper
    # stepped by hand
    g = small_solver.grid
    cfg = make_cfg(dt=0.005, amplitude=1.0)
    state = make_initial_data(small_solver, cfg)
    push, zero = 200.0 * state.Gamma, np.zeros(g.shape)
    sources = (lambda t: push, lambda t: zero)
    stepper = Stepper(cfg, state, sources)
    records, states, sups = [stepper.record()], [state], []
    for _ in range(10):
        stepper.step(cfg.dt)
        states.append(stepper.state)
        records.append(stepper.record())
        sups.append(max(lp_norm(g, stepper.state.Gamma, np.inf), lp_norm(g, stepper.state.omega, np.inf)))
    assert all(b > a for a, b in zip(sups, sups[1:]))
    threshold = 0.5 * (sups[5] + sups[6])
    result = run_simulation(
        replace(cfg, blowup_threshold=threshold),
        sources=sources,
        initial_state=state,
        records="every_step",
    )
    assert result.status == "halted_blowup"
    assert result.records == records[:8]
    final, ref = result.final_state, states[7]
    assert final.t == ref.t
    for name in STATE_FIELDS:
        assert np.array_equal(getattr(final, name), getattr(ref, name)), name


def test_run_simulation_steps_the_initial_state_on_its_solver(small_solver, construction_counts):
    cfg = make_cfg(dt=0.01, t_end=0.02)
    state = make_initial_data(small_solver, cfg)
    result = run_simulation(cfg, initial_state=state)
    assert construction_counts["solvers"] == 0
    assert result.final_state.solver is small_solver


@pytest.mark.parametrize(
    "change", [{"R": 4.0}, {"r_min": 1.5}, {"L_z": 3.0}, {"n_r": 17}, {"n_z": 16}]
)
def test_run_simulation_rejects_a_state_of_another_grid(change):
    cfg = make_cfg(t_end=0.0)
    other = replace(cfg, **change)
    g = build_grid(other.r_min, other.R, other.L_z, other.n_r, other.n_z)
    state = make_initial_data(EllipticSolver(g), replace(other, r_lo=1.6))
    with pytest.raises(ValueError, match="does not match the configured grid"):
        run_simulation(cfg, initial_state=state)
    assert run_simulation(other, initial_state=state).status == "completed"


def test_mms_study_builds_one_solver_per_level(construction_counts):
    # per level: one solver, whose stream operator and two heat operators
    # (L1 and L0' at dt/2) are each factored once
    mms_convergence_study(levels=3, n_base=32, t_end=0.0625)
    assert construction_counts == {"solvers": 3, "factorizations": 9}


def test_unrecorded_run_ends_in_the_recorded_runs_state():
    # a swirl run stepped on its CFL bound, and one MMS level with sources
    mms = build_mms()
    grid = build_grid(mms.r_min, mms.R, mms.L_z, 17, 16)
    bound = mms.bind(grid)
    mms_start = state_from_dynamic(
        EllipticSolver(grid), 0.0, bound["gamma"](0.0), bound["omega"](0.0)
    )
    cases = [
        (make_cfg(dt=None, cfl=0.4, amplitude=1.0, t_end=0.05), {}),
        (
            SolverConfig(
                r_min=mms.r_min, R=mms.R, L_z=mms.L_z, n_r=17, n_z=16, dt=0.025,
                cfl=1.0, t_end=0.0625, output_interval=0.0625,
            ),
            {
                "sources": (bound["source_gamma"], bound["source_omega"]),
                "initial_state": mms_start,
            },
        ),
    ]
    for cfg, kw in cases:
        recorded = run_simulation(cfg, **kw)
        bare = run_simulation(cfg, records="none", **kw)
        assert bare.status == recorded.status == "completed"
        assert bare.records == [] and math.isnan(bare.max_leakage)
        assert bare.final_state.t == recorded.final_state.t
        assert np.array_equal(bare.final_state.Gamma, recorded.final_state.Gamma)
        assert np.array_equal(bare.final_state.omega, recorded.final_state.omega)


def _twenty_steps(cfg, state, sources=None, carry=True):
    """The state after 20 steps of cfg.dt; carry=False steps each on a fresh
    Stepper, which rebuilds the spectra from the state it is given."""
    stepper = Stepper(cfg, state, sources)
    for _ in range(20):
        if not carry:
            stepper = Stepper(cfg, stepper.state, sources)
        stepper.step(cfg.dt)
    return stepper.state


@pytest.mark.parametrize("case", ["swirl", "mms", "monotone"])
def test_carried_spectra_match_spectra_rebuilt_each_step(case, small_solver):
    # strang_cn carries the spectra of (Gamma, omega) from step to step
    # instead of re-transforming the state's fields, so the two differ by
    # the round-off of an irfft -> rfft round trip; the monotone scheme
    # carries nothing and is bit-equal
    sources = None
    if case == "mms":
        mms = build_mms()
        grid = build_grid(mms.r_min, mms.R, mms.L_z, 33, 32)
        bound = mms.bind(grid)
        sources = (bound["source_gamma"], bound["source_omega"])
        cfg = SolverConfig(
            r_min=mms.r_min, R=mms.R, L_z=mms.L_z, n_r=33, n_z=32, dt=0.0125,
            cfl=1.0, t_end=0.25, output_interval=0.25,
        )
        state = state_from_dynamic(
            EllipticSolver(grid), 0.0, bound["gamma"](0.0), bound["omega"](0.0)
        )
    else:
        scheme, dt = ("strang_cn", 0.005) if case == "swirl" else ("monotone", 1e-4)
        cfg = make_cfg(dt=dt, amplitude=2.0, scheme=scheme)
        state = make_initial_data(small_solver, cfg)
    carried = _twenty_steps(cfg, state, sources)
    rebuilt = _twenty_steps(cfg, state, sources, carry=False)
    assert carried.t == rebuilt.t
    for name in ("Gamma", "omega", "psi"):
        a, b = getattr(carried, name), getattr(rebuilt, name)
        if case == "monotone":
            assert np.array_equal(a, b)
        else:
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
    assert carried.solver.stream_residual(carried.psi, carried.omega) < 1e-12


def test_run_simulation_rejects_an_unknown_records_value():
    with pytest.raises(ValueError, match="records"):
        run_simulation(make_cfg(), records="all")


def test_final_state_callers_keep_no_ledger(ledger_calls, monkeypatch):
    steps = []
    step = Stepper.step

    def counted(self, dt):
        steps.append(dt)
        step(self, dt)

    monkeypatch.setattr(Stepper, "step", counted)
    levels = mms_convergence_study(levels=2, n_base=16, t_end=0.0625)
    # one Stepper.step per time step of the ladder
    assert len(steps) == sum(round(0.0625 / lv.dt) for lv in levels) == 7
    picard_experiment(make_cfg(n_r=17, n_z=16), T=0.02, j_max=2, p=6.0, dt=0.01)
    assert len(steps) == 7 + 2
    assert ledger_calls == {"dissipation_sample": 0, "boundary_leakage": 0}


def test_the_ledger_cannot_open_after_a_step(small_solver):
    state = make_initial_data(small_solver, make_cfg())
    stepper = Stepper(make_cfg(), state)
    stepper.step(0.005)
    with pytest.raises(RuntimeError, match="before the first step"):
        stepper.record()
    opened = Stepper(make_cfg(), state)
    assert opened.record().t == 0.0
    opened.step(0.005)
    assert opened.record().t == 0.005
    np.testing.assert_array_equal(opened.state.Gamma, stepper.state.Gamma)


def test_final_state_callers_raise_on_a_halted_run(monkeypatch):
    real = evolution.run_simulation

    def halting(cfg, *args, **kwargs):
        result = real(cfg, *args, **kwargs)
        result.status = "halted_blowup"
        return result

    monkeypatch.setattr(evolution, "run_simulation", halting)
    with pytest.raises(BlowupError, match="MMS level n = 16 halted"):
        mms_convergence_study(levels=2, n_base=16, t_end=0.0625)
    with pytest.raises(BlowupError, match="direct run"):
        picard_experiment(make_cfg(n_r=17, n_z=16), T=0.02, j_max=2, p=6.0, dt=0.01)


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
        scheme="monotone", cfl=0.95,
        t_end=1.0, init_kind="swirl_bump", checkpoint="none",
    )
    state = state_from_dynamic(solver, 0.0, gamma0, omega0)
    stepper = Stepper(cfg, state)
    sup0 = np.max(np.abs(state.Gamma))
    for _ in range(steps):
        dt = 0.9 * stepper.dt_bound()
        stepper.step(dt)
        assert np.max(np.abs(stepper.state.Gamma)) <= sup0 * (1 + 1e-13) + 1e-15


def test_picard_zero_data(small_grid, small_solver):
    state0 = make_initial_data(small_solver, make_cfg(amplitude=0.0, omega_amplitude=0.0))
    res = picard_iterate(state0, T=0.05, j_max=3, p=6.0, dt=0.01, scheme="strang_cn")
    assert all(k == 0.0 for k in res.K)
    assert all(d == 0.0 for d in res.delta)
    assert not res.diverged


def test_picard_first_iterate_scales_linearly(small_grid, small_solver):
    def build(lam):
        return make_initial_data(
            small_solver, make_cfg(amplitude=0.2 * lam, omega_amplitude=0.1 * lam)
        )

    r1 = picard_iterate(build(1.0), T=0.05, j_max=2, p=6.0, dt=0.01, scheme="strang_cn")
    r3 = picard_iterate(build(3.0), T=0.05, j_max=2, p=6.0, dt=0.01, scheme="strang_cn")
    assert r3.K[0] == pytest.approx(3.0 * r1.K[0], rel=1e-12)


def test_picard_small_data_contracts(small_grid, small_solver):
    state0 = make_initial_data(small_solver, make_cfg(amplitude=0.2, omega_amplitude=0.1))
    res = picard_iterate(state0, T=0.1, j_max=5, p=6.0, dt=0.005, scheme="strang_cn")
    assert not res.diverged
    assert all(r < 1.0 for r in res.ratios)


def test_picard_validates_args(small_grid, small_solver):
    state0 = make_initial_data(small_solver, SolverConfig(amplitude=0.1))
    with pytest.raises(ValueError):
        picard_iterate(state0, T=0.0, j_max=3, p=6.0, dt=0.01, scheme="strang_cn")
    with pytest.raises(ValueError):
        picard_iterate(state0, T=0.1, j_max=3, p=2.0, dt=0.01, scheme="strang_cn")
    # dt = 0 divided by zero, and dt = -0.01 ran one step of length T
    for dt in (0.0, -0.01):
        with pytest.raises(ValueError, match="dt > 0"):
            picard_iterate(state0, T=0.04, j_max=3, p=6.0, dt=dt, scheme="strang_cn")


def test_picard_memory_does_not_grow_with_the_step_count(small_solver):
    # the iterates step in lockstep and keep only the fields of the step
    # boundary they last reached: 4 and 64 steps peak at 321 and 338 KB
    # (256 steps too at 338); a per-step history of the previous iterate
    # peaked at 496 and 3844 KB
    state0 = make_initial_data(small_solver, make_cfg(amplitude=0.2, omega_amplitude=0.1))

    def peak(dt):
        # after a warm-up call, which builds the solver's factorizations for dt
        picard_iterate(state0, T=0.04, j_max=3, p=6.0, dt=dt, scheme="strang_cn")
        tracemalloc.start()
        try:
            picard_iterate(state0, T=0.04, j_max=3, p=6.0, dt=dt, scheme="strang_cn")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    few, many = peak(0.01), peak(0.04 / 64)
    assert many <= 1.1 * few, f"peak {many / 1e3:.0f} KB at 64 steps, {few / 1e3:.0f} KB at 4"


def test_step_without_velocity_is_two_crank_nicolson_half_steps(small_grid, small_solver):
    # a z-independent Gamma with omega = 0 has no velocity and no swirl feed,
    # so each Strang step is the Crank-Nicolson half step of L1 taken twice
    gamma0 = bump_profile(small_grid.r, 1.3, 2.5)[:, None] * np.ones(small_grid.shape)
    state = state_from_dynamic(small_solver, 0.0, gamma0, np.zeros(small_grid.shape))
    stepper = Stepper(make_cfg(), state)
    ref = gamma0
    for _ in range(5):
        stepper.step(0.01)
        for _ in range(2):
            fhat = small_solver.heat_step(small_solver.spectrum(ref, "L1"), 0.005, "L1")
            ref = small_solver.field(fhat, "L1")
        assert np.all(stepper.state.omega == 0.0)
        np.testing.assert_allclose(stepper.state.Gamma, ref, rtol=0, atol=1e-13)
    assert stepper.state.t == pytest.approx(0.05)


def test_run_regression_anchor():
    # frozen last-row diagnostics of a default and a monotone run
    expected = {
        "strang_cn": {
            "e_kin": 1.6720137853241563,
            "sup_gamma": 0.5240636889208661,
            "l2_om": 0.30195661369281046,
            "margin_1_6": -0.47386805949038757,
        },
        "monotone": {
            "e_kin": 1.6709478097973076,
            "sup_gamma": 0.5238378729988968,
            "l2_om": 0.3018183336846523,
            "margin_1_6": -0.4740938754123568,
        },
    }
    for scheme, anchors in expected.items():
        cfl = 0.9 if scheme == "monotone" else 0.4
        cfg = make_cfg(amplitude=1.0, omega_amplitude=0.5, scheme=scheme, cfl=cfl)
        last = run_simulation(cfg).records[-1]
        assert last.t == pytest.approx(0.1)
        for key, val in anchors.items():
            assert getattr(last, key) == pytest.approx(val, rel=1e-12), (scheme, key)


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
