"""Every gate can fail: each test seeds one known defect and checks that the
gate meant to catch it trips, next to the clean code passing the same gate.

The defects are monkeypatched, so the tree itself never holds one.  The
grids are small; the whole file stays within a 30 s budget.
"""

import itertools
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import run_config
from mms_derivation import mismatches

from axicyl import diagnostics, elliptic, evolution, grid as grid_module
from axicyl.config import SolverConfig, load_config
from axicyl.diagnostics import (
    energy_budget_check,
    eps_sweep,
    identity_5_3_check,
    inequality_batch,
    vorticity_budgets_check,
)
from axicyl.elliptic import EllipticSolver, commutation_ladder, semigroup_experiment
from axicyl.fields import bump_profile, state_from_dynamic, velocity_from_stream
from axicyl.grid import build_grid, ddr, ddz, lp_norm, radial_weights, weighted_integral
from axicyl.manufactured import TERMS, mms_convergence_study

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module", autouse=True)
def file_budget():
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"test_gates_fail.py took {elapsed:.1f} s, over its 30 s budget"


def _commutation_reductions() -> list[float]:
    """Criterion 9's deviation ratios at t = 0.05."""
    return [lv.reduction_ratio for lv in commutation_ladder(Counter())[1:]]


def _wrong_l1_robin_coefficient(monkeypatch):
    """Gamma's Robin wall d_r Gamma = (1/r_min) Gamma in place of (2/r_min) Gamma."""
    monkeypatch.setitem(elliptic.OPERATORS, "L1", replace(elliptic.OPERATORS["L1"], wall=1.0))


def test_wrong_l1_robin_coefficient_trips_the_commutation_gate(monkeypatch):
    # r e^(t L0) = e^(t L1) r needs d_r Gamma = (2/r_min) Gamma at the wall;
    # with 1/r_min the deviation stops shrinking under refinement
    # (reductions 3.99/4.00 clean, 1.01/1.00 defective)
    assert min(_commutation_reductions()) >= 3.0
    _wrong_l1_robin_coefficient(monkeypatch)
    assert max(_commutation_reductions()) < 3.0


def test_wrong_l1_robin_coefficient_trips_the_energy_residual(monkeypatch):
    # criterion 2's run (configs/energy_budget.cfg) to t = 0.1: the wall flux
    # term of (1.5) is that of the slip condition, so the wrong wall breaks
    # the balance (residual 4.4e-4 clean, 2.2e-2 defective)
    cfg = SolverConfig.from_mapping(load_config(CONFIGS / "energy_budget.cfg"))
    cfg = replace(cfg, t_end=0.1)

    def residual():
        return energy_budget_check(run_config(cfg).records)

    assert residual() < 1e-3  # criterion 2's bound
    _wrong_l1_robin_coefficient(monkeypatch)
    assert residual() > 1e-3


def test_stale_carried_spectra_trip_the_energy_residual(monkeypatch):
    # strang_cn steps hand the next step the spectra of (Gamma, omega) they
    # end with.  Handing on the spectra a step started from restarts every
    # step from the initial data while the clock runs on, and the (1.5)
    # balance breaks (residual 4.4e-4 clean, 1.2 defective)
    cfg = SolverConfig.from_mapping(load_config(CONFIGS / "energy_budget.cfg"))
    cfg = replace(cfg, t_end=0.1)

    def residual():
        return energy_budget_check(run_config(cfg).records)

    assert residual() < 1e-3  # criterion 2's bound
    step = evolution._strang_heun

    def stale(solver, gamma, omega, dt, tendency, scheme, spectra=None):
        if spectra is None:
            spectra = solver.spectrum(gamma, "L1"), solver.spectrum(omega, "L0p")
        start = tuple(s.copy() for s in spectra)
        gamma, omega, _ = step(solver, gamma, omega, dt, tendency, scheme, spectra)
        return gamma, omega, start

    monkeypatch.setattr(evolution, "_strang_heun", stale)
    assert residual() > 1e-3


def test_dropped_wall_flux_trips_the_energy_residual(monkeypatch):
    # criteria 2 and 12 read the (1.5) residual, whose ledger carries the
    # swirl's flux (2/r_min) oint |u_th|^2 dH through the Robin wall.
    # Leaving it out of the ledger breaks the balance (residual 4.4e-4 clean,
    # 1.6e-2 defective).  Criterion 11's no-swirl runs have u_th = 0, hence
    # no flux, so this defect cannot trip their (6.1) residual.
    cfg = SolverConfig.from_mapping(load_config(CONFIGS / "energy_budget.cfg"))
    cfg = replace(cfg, t_end=0.1)

    def residual():
        return energy_budget_check(run_config(cfg).records)

    assert residual() < 1e-3  # criteria 2 and 12's bound
    sample = evolution.dissipation_sample

    def without_flux(state):
        return sample(state)._replace(flux=0.0)

    monkeypatch.setattr(evolution, "dissipation_sample", without_flux)
    assert residual() > 1e-3


def test_wall_radius_swirl_velocity_trips_the_l4_bound(monkeypatch):
    # criterion 4 reads margin_1_7 = ||u_th||_4 - sup|Gamma_0|^(1/2)
    # ||u_0||_2^(1/2) at every record.  The defect is in the stepped state,
    # which the step builds with state_from_dynamic: u_th = Gamma / r_min
    # in place of Gamma / r.  On criterion 4's own data
    # (configs/energy_budget.cfg, swirl on 1.1 < r < 2.4) it does not trip:
    # the worst margin moves from -0.29 to -0.075 of the bound's scale at
    # 129x128 (-0.10 at 33x32).  With the swirl on 1.5 < r < 3.5, where r /
    # r_min is larger, it moves from -0.42 to +0.21 at 33x32
    cfg = SolverConfig.from_mapping(load_config(CONFIGS / "energy_budget.cfg"))
    cfg = replace(cfg, n_r=33, n_z=32, dt=0.012, t_end=0.1, r_lo=1.5, r_hi=3.5)

    def margin():
        records = run_config(cfg).records
        first = records[0]
        bound_scale = np.sqrt(first.sup_Gamma * np.sqrt(first.E_kin))
        return max(r.margin_1_7 for r in records) / bound_scale

    assert margin() <= 1e-8  # criterion 4's bound
    build = evolution.state_from_dynamic

    def wall_radius(solver, t, gamma, omega, omega_hat=None):
        state = build(solver, t, gamma, omega, omega_hat)
        state.uth = state.Gamma / solver.grid.r_min
        return state

    monkeypatch.setattr(evolution, "state_from_dynamic", wall_radius)
    assert margin() > 1e-8


def test_dropped_vorticity_reaction_trips_the_no_swirl_closure(monkeypatch):
    # criterion 5's no-swirl closure ||om/r||^2 + 2 int ||grad(om/r)||^2 =
    # ||om_0/r||^2 holds only with the (u_r/r) omega reaction in omega's
    # tendency.  On criterion 5's own data the defect moves the residual
    # from 2.88e-4 to 2.94e-4 only, so this runs its fixture with a vortex
    # twenty times stronger to t = 0.1 (5.62e-4 clean, 2.64e-3 defective)
    cfg = SolverConfig(
        r_min=1.0,
        R=4.0,
        L_z=3.0,
        n_r=129,
        n_z=128,
        dt=0.001,
        t_end=0.1,
        output_interval=0.001,
        init_kind="no_swirl_bump",
        amplitude=1.0,
        omega_amplitude=20.0,
        r_lo=1.25,
        r_hi=2.75,
    )

    def closure():
        records = run_config(cfg).records
        return vorticity_budgets_check(records).closure_residual_no_swirl

    assert closure() < 1e-3  # criterion 5's bound
    rates = evolution._coupled_rates

    def without_reaction(grid, scheme, gamma, omega, ur, uz, gamma_feed):
        kg, kw = rates(grid, scheme, gamma, omega, ur, uz, gamma_feed)
        return kg, kw - (ur / grid.rcol) * omega

    monkeypatch.setattr(evolution, "_coupled_rates", without_reaction)
    assert closure() > 1e-3


def test_dropped_metric_term_trips_the_eps_sweep_energy_residual(monkeypatch):
    # criterion 11 reads the (6.1) energy residual of the eps sweep's
    # no-swirl runs, whose dissipation ||grad v||^2 holds the (u_r/r)^2 metric
    # term of the cylindrical gradient.  On configs/eps_sweep.cfg, dropping it
    # moves the worst residual from 5.27e-4 to 2.99e-2, against 1e-3; eps =
    # 0.125 alone reads the same two numbers
    template = SolverConfig.from_mapping(load_config(CONFIGS / "eps_sweep.cfg"))

    def residual():
        (summary,) = eps_sweep(template, [0.125])
        assert summary.status == "completed"
        return summary.res_energy_6_1

    assert residual() < 1e-3  # criterion 11's bound

    def without_metric_term(grid, ur, uz):
        terms = ddr(grid, ur) ** 2 + ddz(grid, ur) ** 2 + ddr(grid, uz) ** 2 + ddz(grid, uz) ** 2
        return weighted_integral(grid, terms)

    monkeypatch.setattr(diagnostics, "_velocity_gradient_integral", without_metric_term)
    assert residual() > 1e-3


def test_flattened_spike_trips_the_semigroup_decay_gate(monkeypatch):
    # criterion 8 fits the sup-norm decay of the L^p-critical spike
    # rho^(-3/p) to t^(-3/(2p)); the flatter rho^(-2/p), still of unit
    # L^p norm, decays like t^(-1/p) (exponent errors at p = 2: at most
    # 0.003 clean, 0.24-0.25 defective)
    def worst_error():
        cases = (("L0", 2.0, 0), ("L1", 2.0, 0))
        results = semigroup_experiment(n=129, dt=1.0 / 300.0, cases=cases, counts=Counter())
        return max(abs(r.fitted_exponent - r.target_exponent) for r in results)

    assert worst_error() <= 0.08  # criterion 8's bound
    spike = elliptic.power_spike

    def flattened(grid, p, center, envelope):
        f = spike(grid, 1.5 * p, center, envelope)  # rho^(-3/(1.5 p)) = rho^(-2/p)
        return f / lp_norm(grid, f, p)

    monkeypatch.setattr(elliptic, "power_spike", flattened)
    assert worst_error() > 0.08


def test_undriven_iterates_trip_the_picard_gate(monkeypatch):
    # criterion 10 on configs/picard.cfg's data and iteration at 33x32.
    # Iterates each driven by their own start-of-step fields, not handed
    # the previous iterate's, all compute the same fields: every delta_j is
    # 0 and every ratio nan (clean: ratios 0.022-0.031, direct match
    # 1.2e-7 < 0.17)
    mapping = load_config(CONFIGS / "picard.cfg")
    cfg = replace(SolverConfig.from_mapping(mapping), n_r=33, n_z=32)
    T, p, dt = (float(mapping[f"picard.{k}"]) for k in ("t_end", "p", "dt"))
    j_max = int(mapping["picard.j_max"])

    def criterion_10():
        result, diff, tol = evolution.picard_experiment(cfg, T, j_max, p, dt)
        ratios = result.ratios[:5]
        return (
            len(ratios) == 5
            and all(r < 1.0 for r in ratios)
            and all(b < a for a, b in zip(result.delta, result.delta[1:]))
            and not result.diverged
            and diff < tol
        )

    assert criterion_10()
    step, iterate = evolution._strang_heun, evolution.picard_iterate

    def own_fields(solver, gamma, omega, dt, tendency, scheme, spectra=None):
        ur, uz = velocity_from_stream(solver.grid, solver.solve_stream(omega))

        def undriven(g, w, stage, w_hat):
            return evolution._coupled_rates(solver.grid, scheme, g, w, ur, uz, gamma)

        return step(solver, gamma, omega, dt, undriven, scheme, spectra)

    def undriven_iterates(*args, **kwargs):
        # the direct run, which picard_experiment makes after the iterates,
        # steps with the clean _strang_heun
        with monkeypatch.context() as m:
            m.setattr(evolution, "_strang_heun", own_fields)
            return iterate(*args, **kwargs)

    monkeypatch.setattr(evolution, "picard_iterate", undriven_iterates)
    assert not criterion_10()


def _unweighted_quadrature(monkeypatch):
    """The quadrature without the Jacobian r, pointwise (weighted_integral) and
    by rows (radial_quadrature, which a grid's factors read when they are
    first built), in every module that imported it by name."""

    def unweighted(grid, f):
        return float(2.0 * np.pi * grid.h_z * np.sum(radial_weights(grid)[:, None] * f))

    def unweighted_rows(grid):
        return 2.0 * np.pi * grid.h_z * radial_weights(grid)

    for attr, defect in (("weighted_integral", unweighted), ("radial_quadrature", unweighted_rows)):
        clean = getattr(grid_module, attr)
        for name, module in list(sys.modules.items()):
            if name.startswith("axicyl") and getattr(module, attr, None) is clean:
                monkeypatch.setattr(module, attr, defect)


def test_unweighted_quadrature_trips_the_gradient_identity_refinement(monkeypatch):
    # criterion 6: the (5.3) deviation must shrink under h refinement.
    # Without the Jacobian r in the quadrature it is still under the 1e-2
    # bound, but grows from 6.2e-3 to 7.8e-3 (clean: 2.2e-3 to 5.5e-4)
    def deviations():
        devs = []
        for n_r, n_z in ((129, 64), (257, 128)):
            g = build_grid(1.0, 5.0, 2.0, n_r, n_z)
            om = bump_profile(g.r, 1.4, 2.8)[:, None] * (0.6 + np.sin(2 * np.pi * g.z / g.L_z))
            state = state_from_dynamic(EllipticSolver(g), 0.0, np.zeros(g.shape), om)
            devs.append(identity_5_3_check(state))
        return devs

    dev, dev_h = deviations()
    assert dev < 1e-2 and dev_h < dev
    _unweighted_quadrature(monkeypatch)
    dev, dev_h = deviations()
    assert dev < 1e-2 and dev_h >= dev


def test_unweighted_quadrature_trips_the_e5_7_identity(monkeypatch):
    # (5.7) in curl form: the cross term 2 int om d_r om dr of
    # ||grad(om e_th)||^2 telescopes to 0 in the r-weighted quadrature;
    # without the weight it is int 2 om d_r om / r dr, no longer a
    # difference (deviation 2e-16 clean, 1.6e-3 to 7.6e-3 defective)
    cfg = SolverConfig.from_mapping(load_config(CONFIGS / "inequalities.cfg"))
    solver = EllipticSolver(cfg.grid)

    def e5_7():
        reports = inequality_batch(cfg, solver, range(4), (1000, 2000), 2.0, 4.0)
        return next(r for r in reports if r.inequality == "E5_7")

    assert e5_7().n_violations == 0
    _unweighted_quadrature(monkeypatch)
    assert e5_7().n_violations == 4


def test_zero_block_carry_trips_the_stream_residual(monkeypatch):
    # the residual of the discrete stream equation, relative to omega's sup
    g = build_grid(1.0, 3.0, 2.0, 65, 64)  # 63 unknown rows: 8 blocks of 8
    rng = np.random.default_rng(3)
    omega = rng.normal(size=g.shape)
    omega[0] = omega[-1] = 0.0

    def residual():
        s = EllipticSolver(g)
        res = s.apply_heat_operator(s.solve_stream(omega), "stream") + omega
        return np.max(np.abs(res[1:-1])) / np.max(np.abs(omega))

    assert residual() < 1e-12
    products = elliptic._block_products

    def zero_carry(coef):
        # zero weights make every block's hand-on value, hence every carry, zero
        weights, span = products(coef)
        return np.zeros_like(weights), span

    monkeypatch.setattr(elliptic, "_block_products", zero_carry)
    assert residual() > 1e-12


def test_skipped_second_half_step_drops_the_mms_order(monkeypatch):
    # Strang splitting takes a Crank-Nicolson half step of L1 and of L0' on
    # each side of the Heun step.  Skipping the second pair, with the first
    # taking the whole dt, is Lie splitting: first order in time.
    def orders():
        levels = mms_convergence_study(levels=3, n_base=32, t_end=0.25)
        return [lv.observed_order for lv in levels[1:]]

    assert all(1.8 <= o <= 2.2 for o in orders())  # criterion 1's gate
    step = EllipticSolver.heat_step
    calls = itertools.count()

    def lie(self, fhat, dt, op):
        # per Strang step: L1, L0' before the Heun step, then L1, L0' after it
        return step(self, fhat, 2 * dt, op) if next(calls) % 4 < 2 else fhat

    monkeypatch.setattr(EllipticSolver, "heat_step", lie)
    defective = orders()
    assert all(abs(o - 1.0) < 0.2 for o in defective), defective


def test_flipped_term_sign_trips_the_table_rederivation():
    # S_Gamma's term -0.113 r^-1 p0 p1 sin^2(k z) t cos t with its sign
    # flipped: criterion 1 cannot see it (orders 1.950, 1.987 at 32/64/128,
    # as clean; 1.987, 1.994 at 64/128/256, clean 1.987, 1.997), so the
    # term-by-term re-derivation is the table's only guard
    key = ("source_gamma", (2, 0, 1, 1, 0), -1, (1, 1, 0, 0, 0))
    flipped = [(f, m, -c if (f, m, a, n) == key else c, a, n) for f, m, c, a, n in TERMS]
    assert mismatches(TERMS) == []
    (report,) = mismatches(flipped)
    assert report.startswith(str(key))
