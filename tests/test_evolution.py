import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import run_config
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axicyl import evolution, manufactured
from axicyl.config import SCHEMES, SolverConfig
from axicyl.elliptic import EllipticSolver
from axicyl.evolution import (
    BlowupError,
    Stepper,
    _coupled_rates,
    picard_experiment,
    picard_iterate,
    run_simulation,
    swirl_vorticity_source,
)
from axicyl.fields import (
    STATE_FIELDS,
    AxisymState,
    bump_profile,
    checkpoint_load,
    checkpoint_save,
    make_initial_data,
    state_from_dynamic,
    velocity_from_stream,
)
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
        dt=0.005,
        t_end=0.1,
        output_interval=0.02,
        init_kind="swirl_bump",
        amplitude=0.5,
        omega_amplitude=0.25,
        r_lo=1.3,
        r_hi=2.4,
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
    with pytest.raises(BlowupError, match="exceeds cfl"):
        stepper.step(1.0)


def test_blowup_detection():
    # under cfl = 0.4 times the CFL bound of these velocities, 3.2e-10
    cfg = make_cfg(
        dt=1e-10, t_end=1.0, amplitude=1e9, omega_amplitude=1e9, blowup_threshold=1e3
    )
    result = run_config(cfg)
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
    result = run_simulation(cfg, state, sources, records=True)
    assert result.status == "halted_blowup"
    assert result.halt.startswith("non-finite fields at t = 0.005: ")
    assert result.final_state is state


def test_nan_in_gamma_ends_the_step_as_blowup(small_solver):
    cfg = make_cfg(dt=0.005)
    zero = np.zeros(small_solver.grid.shape)
    nan = np.full(small_solver.grid.shape, np.nan)
    state = make_initial_data(small_solver, cfg)
    with pytest.raises(BlowupError, match="non-finite"):
        Stepper(cfg, state, (lambda t: nan, lambda t: zero)).step(0.005)


@pytest.mark.parametrize("name", ["ur", "uth", "uz"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_derived_field_still_raises(name, bad, monkeypatch):
    # the step builds its state with state_from_dynamic, whose construction
    # rejects a non-finite field with a ValueError naming it
    # (test_state_validation); the step must end as BlowupError naming the
    # field, and leave the stepper on the state it started from.  u_theta =
    # Gamma / r is derived when read, and construction checks the bound
    # sup|Gamma| / r_min for it; a finite Gamma can only make it overflow,
    # never NaN, so for uth both cases put a Gamma near the float limit at
    # a wall r_min < 1
    cfg = make_cfg(r_min=0.5, R=2.5, n_r=17, n_z=16)
    build = evolution.state_from_dynamic

    def spoiled(solver, t, gamma, omega, omega_hat=None):
        if name == "uth":
            gamma = gamma.copy()
            gamma[0, 4] = 1.5e308
            return build(solver, t, gamma, omega, omega_hat)
        state = build(solver, t, gamma, omega, omega_hat)
        values = {n: getattr(state, n).copy() for n in STATE_FIELDS}
        values[name][3, 4] = bad
        return AxisymState(t, solver, **values)

    monkeypatch.setattr(evolution, "state_from_dynamic", spoiled)
    state = make_initial_data(EllipticSolver(cfg.grid), cfg)
    stepper = Stepper(cfg, state)
    message = f"non-finite fields at t = 0.005: {name} contains non-finite values"
    with pytest.raises(BlowupError, match=message):
        stepper.step(0.005)
    assert stepper.state is state


@pytest.mark.parametrize(
    "node", [(1, 0), (3, 4), (-2, -1)], ids=["first_row", "interior", "last_row"]
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_stream_function_ends_the_step(node, bad, small_solver, monkeypatch):
    # psi is not kept on the state: a non-finite node of the stream solve
    # that builds the stepped state reaches u_r or u_z, whose check ends
    # the step as BlowupError and leaves the stepper on its old state
    build = evolution.state_from_dynamic

    def spoiled(solver, t, gamma, omega, omega_hat=None):
        solve = solver.solve_stream

        def solve_with_a_bad_node(*args):
            psi = solve(*args)
            psi[node] = bad
            return psi

        solver.solve_stream = solve_with_a_bad_node  # this call's solve only
        try:
            return build(solver, t, gamma, omega, omega_hat)
        finally:
            del solver.solve_stream

    monkeypatch.setattr(evolution, "state_from_dynamic", spoiled)
    state = make_initial_data(small_solver, make_cfg())
    stepper = Stepper(make_cfg(), state)
    with pytest.raises(BlowupError, match="(ur|uz) contains non-finite values"):
        stepper.step(0.005)
    assert stepper.state is state


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stepped_state_and_its_sups_match_the_checked_path(scheme, small_solver, tmp_path):
    # every state is built by state_from_dynamic, whose check pass leaves
    # the fields' sup norms on the state: they must be lp_norm(., inf)'s bit
    # for bit whichever way the state was made, and dt_bound the formula on
    # max|u_r| and max|u_z|
    g = small_solver.grid
    dt = 0.005 if scheme == "strang_cn" else 1e-4
    cfg = make_cfg(dt=dt, amplitude=2.0, scheme=scheme)
    state0 = make_initial_data(small_solver, cfg)
    checkpoint_save(state0, tmp_path / "state.axns")
    states = [state0, checkpoint_load(tmp_path / "state.axns")]
    stepper = Stepper(cfg, state0)
    for _ in range(5):
        stepper.step(dt)
        states.append(stepper.state)
        vr, vz = np.max(np.abs(stepper.state.ur)), np.max(np.abs(stepper.state.uz))
        if scheme == "strang_cn":
            expect = min(g.h_r / vr, g.h_z / vz)
        else:
            rate = 1.0 / min(
                small_solver.explicit_stability_bound("L1"),
                small_solver.explicit_stability_bound("L0p"),
            )
            expect = 1.0 / (rate + vr / g.h_r + vz / g.h_z)
        assert stepper.dt_bound() == expect
    picard = picard_iterate(state0, T=2 * dt, j_max=2, p=6.0, dt=dt, scheme=scheme)
    states.append(picard.final_state)
    for st_ in states:
        assert st_.sup == {n: lp_norm(g, getattr(st_, n), np.inf) for n in STATE_FIELDS}


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
    every_step = replace(cfg, blowup_threshold=threshold, output_interval=cfg.dt)
    result = run_simulation(every_step, state, sources, records=True)
    assert result.status == "halted_blowup"
    assert result.halt == (
        f"max(sup|Gamma|, sup|omega|) = {sups[6]:.6g} exceeds run.blowup_threshold "
        f"= {threshold:.6g} at t = {states[7].t:.6g}"
    )
    assert result.records == records[:8]
    final, ref = result.final_state, states[7]
    assert final.t == ref.t
    for name in STATE_FIELDS:
        assert np.array_equal(getattr(final, name), getattr(ref, name)), name


def test_run_simulation_steps_the_initial_state_on_its_solver(small_solver, construction_counts):
    # the grid is the state's: cfg's grid keys are not read, so a cfg whose
    # grid differs steps the same state to the same fields
    cfg = make_cfg(dt=0.01, t_end=0.02)
    state = make_initial_data(small_solver, cfg)
    result = run_simulation(cfg, state, records=True)
    assert construction_counts["solvers"] == 0
    assert result.final_state.solver is small_solver
    for change in ({"R": 4.0}, {"r_min": 1.5}, {"L_z": 3.0}, {"n_r": 17}, {"n_z": 16}):
        other = run_simulation(replace(cfg, **change), state, records=True)
        assert other.final_state.solver is small_solver
        assert other.final_state.t == result.final_state.t
        for name in STATE_FIELDS:
            a, b = getattr(other.final_state, name), getattr(result.final_state, name)
            assert np.array_equal(a, b), name
    assert construction_counts["solvers"] == 0


def test_mms_study_builds_one_solver_per_level(construction_counts):
    # per level: one solver, whose stream operator and two heat operators
    # (L1 and L0' at dt/2) are each factored once
    mms_convergence_study(levels=3, n_base=32, t_end=0.0625)
    assert construction_counts == {"solvers": 3, "factorizations": 9}


def test_unrecorded_run_ends_in_the_recorded_runs_state():
    # a swirl run, and one MMS level with sources
    mms = build_mms()
    mms_cfg = SolverConfig(
        r_min=mms.r_min, R=mms.R, L_z=mms.L_z, n_r=17, n_z=16, dt=0.025,
        cfl=1.0, t_end=0.0625, output_interval=0.0625,
    )
    bound = mms.bind(mms_cfg.grid)
    mms_start = state_from_dynamic(
        EllipticSolver(mms_cfg.grid), 0.0, bound["gamma"](0.0), bound["omega"](0.0)
    )
    swirl_cfg = make_cfg(amplitude=1.0, t_end=0.05)
    cases = [
        (swirl_cfg, make_initial_data(EllipticSolver(swirl_cfg.grid), swirl_cfg), None),
        (mms_cfg, mms_start, (bound["source_gamma"], bound["source_omega"])),
    ]
    for cfg, state, sources in cases:
        recorded = run_simulation(cfg, state, sources, records=True)
        bare = run_simulation(cfg, state, sources, records=False)
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
        cfg = SolverConfig(
            r_min=mms.r_min, R=mms.R, L_z=mms.L_z, n_r=33, n_z=32, dt=0.0125,
            cfl=1.0, t_end=0.25, output_interval=0.25,
        )
        bound = mms.bind(cfg.grid)
        sources = (bound["source_gamma"], bound["source_omega"])
        state = state_from_dynamic(
            EllipticSolver(cfg.grid), 0.0, bound["gamma"](0.0), bound["omega"](0.0)
        )
    else:
        scheme, dt = ("strang_cn", 0.005) if case == "swirl" else ("monotone", 1e-4)
        cfg = make_cfg(dt=dt, amplitude=2.0, scheme=scheme)
        state = make_initial_data(small_solver, cfg)
    carried = _twenty_steps(cfg, state, sources)
    rebuilt = _twenty_steps(cfg, state, sources, carry=False)
    assert carried.t == rebuilt.t
    for name in ("Gamma", "omega", "ur", "uz"):
        a, b = getattr(carried, name), getattr(rebuilt, name)
        if case == "monotone":
            assert np.array_equal(a, b)
        else:
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name
    # the velocities are those of the stream solve of the state's omega
    ur, uz = velocity_from_stream(carried.grid, carried.solver.solve_stream(carried.omega))
    for name, expect in (("ur", ur), ("uz", uz)):
        got = getattr(carried, name)
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect)), name


def test_run_simulation_needs_a_step(small_solver):
    cfg = replace(make_cfg(), dt=None)
    state = make_initial_data(small_solver, cfg)
    for records in (True, False):
        with pytest.raises(ValueError, match="dt"):
            run_simulation(cfg, state, records=records)


def test_an_output_interval_of_dt_records_every_step(small_solver):
    # 8 steps of 2^-7 reach t_end = 2^-4 exactly: the run's records are
    # those of a stepper stepped and recorded by hand, bit for bit
    cfg = make_cfg(dt=0.0078125, t_end=0.0625, output_interval=0.0078125)
    state = make_initial_data(small_solver, cfg)
    stepper = Stepper(cfg, state)
    records = [stepper.record()]
    for _ in range(8):
        stepper.step(cfg.dt)
        records.append(stepper.record())
    result = run_simulation(cfg, state, records=True)
    assert result.records == records
    for name in STATE_FIELDS:
        assert np.array_equal(getattr(result.final_state, name), getattr(stepper.state, name))


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


def _halting_run(kind):
    """(cfg, sources, the halt's first words, the record times) of a run
    that halts the given way."""
    if kind == "cfl":
        # configs/smoke_large_swirl.cfg's data at 33x32: a step of 0.5 passes
        # the CFL check at t = 0 (cfl * bound 0.930) and fails it at t = 0.5
        # (0.201)
        large = dict(R=4.5, amplitude=5.0, omega_amplitude=0.45, r_lo=1.1, r_hi=2.4)
        cfg = make_cfg(**large, z_lo=0.4, z_hi=1.6, dt=0.5, t_end=2.0, output_interval=0.5)
        return cfg, None, "dt = 5.000e-01 exceeds cfl * bound = ", [0.0, 0.5]
    if kind == "non_finite":  # omega's source turns NaN past the output time 0.01
        cfg = make_cfg(n_r=17, n_z=16, dt=0.005, output_interval=0.005)
        zero, nan = np.zeros(cfg.grid.shape), np.full(cfg.grid.shape, np.nan)
        sources = (lambda t: zero, lambda t: nan if t > 0.012 else zero)
        return cfg, sources, "non-finite fields at t = 0.015: ", [0.0, 0.005, 0.01]
    if kind == "threshold":  # sup|Gamma| = 0.5 is over it after the first step
        cfg = make_cfg(n_r=17, n_z=16, output_interval=0.005, blowup_threshold=0.1)
        return cfg, None, "max(sup|Gamma|, sup|omega|) = ", [0.0, 0.005]
    cfg = make_cfg(n_r=17, n_z=16, amplitude=1e300)  # the ledger opens with E_kin = inf
    return cfg, None, "the budget ledger opens non-finite at t = 0: E_kin = inf", [0.0]


@pytest.mark.parametrize("kind", ["cfl", "non_finite", "threshold", "ledger"])
def test_every_halt_records_the_state_it_stops_at_once(kind):
    # every halt, a CFL excess included, ends the records with the final
    # state, recorded once even when the halt comes right after an output
    cfg, sources, halt, times = _halting_run(kind)
    state = make_initial_data(EllipticSolver(cfg.grid), cfg)
    result = run_simulation(cfg, state, sources, records=True)
    assert result.status == "halted_blowup"
    assert result.halt.startswith(halt)
    assert [r.t for r in result.records] == times
    assert result.final_state.t == times[-1]


def test_final_state_callers_raise_on_a_halted_run(monkeypatch):
    real = evolution.run_simulation

    def halting(cfg, *args, **kwargs):
        result = real(cfg, *args, **kwargs)
        result.halt = "halted for the test"
        return result

    monkeypatch.setattr(evolution, "run_simulation", halting)
    monkeypatch.setattr(manufactured, "run_simulation", halting)
    # each message carries the run's halt reason
    with pytest.raises(BlowupError, match="MMS level n = 16 halted .*: halted for the test$"):
        mms_convergence_study(levels=2, n_base=16, t_end=0.0625)
    with pytest.raises(BlowupError, match="direct run .*: halted for the test$"):
        picard_experiment(make_cfg(n_r=17, n_z=16), T=0.02, j_max=2, p=6.0, dt=0.01)


def test_run_simulation_t_end_zero():
    cfg = make_cfg(t_end=0.0)
    result = run_config(cfg)
    assert len(result.records) == 1
    assert result.records[0].t == 0.0


def test_run_simulation_deterministic():
    cfg = make_cfg(init_kind="random_modes", seed=5, t_end=0.05)
    a = run_config(cfg)
    b = run_config(cfg)
    assert a.records == b.records


def test_swirl_max_principle_default_scheme():
    cfg = make_cfg(t_end=0.2, amplitude=1.0)
    result = run_config(cfg)
    sup0 = result.records[0].sup_Gamma
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
        t_end=1.0, init_kind="swirl_bump",
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
    # frozen last-row diagnostics of a default and a monotone run; the
    # monotone step is under its t = 0 CFL step of 8.2e-4
    expected = {
        "strang_cn": {
            "E_kin": 1.6720137853241563,
            "sup_Gamma": 0.5240636889208661,
            "l2_om": 0.30195661369281046,
            "margin_1_6": -0.47386805949038757,
        },
        "monotone": {
            "E_kin": 1.6709475125975959,
            "sup_Gamma": 0.5238375622758645,
            "l2_om": 0.3018178817238985,
            "margin_1_6": -0.4740941861353891,
        },
    }
    for scheme, anchors in expected.items():
        cfl, dt = (0.9, 0.0008) if scheme == "monotone" else (0.4, 0.005)
        cfg = make_cfg(amplitude=1.0, omega_amplitude=0.5, scheme=scheme, cfl=cfl, dt=dt)
        last = run_config(cfg).records[-1]
        assert last.t == pytest.approx(0.1)
        for key, val in anchors.items():
            assert getattr(last, key) == pytest.approx(val, rel=1e-12), (scheme, key)


def test_accumulated_budget_nonnegative_terms():
    cfg = make_cfg(t_end=0.1)
    result = run_config(cfg)
    last = result.records[-1]
    assert last.diss_v >= 0
    assert last.diss_uth >= 0
    assert last.diss_swirl_weight >= 0
    assert last.bdry_flux >= 0
    # accumulators are non-decreasing along the series
    for a, b in zip(result.records, result.records[1:]):
        assert b.diss_v >= a.diss_v - 1e-15
        assert b.bdry_flux >= a.bdry_flux - 1e-15
