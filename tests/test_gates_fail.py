"""Every gate can fail: each test seeds one known defect and checks that the
gate meant to catch it trips, next to the clean code passing the same gate.

The defects are monkeypatched, so the tree itself never holds one.  The
grids are small; the whole file stays within a 30 s budget.
"""

import itertools
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from axicyl import elliptic, grid as grid_module
from axicyl.config import SolverConfig
from axicyl.diagnostics import energy_budget_check, identity_5_3_check
from axicyl.elliptic import EllipticSolver, commutation_check
from axicyl.evolution import run_simulation
from axicyl.fields import bump_profile, state_from_dynamic
from axicyl.grid import build_grid, radial_weights
from axicyl.manufactured import build_mms, mms_convergence_study


@pytest.fixture(scope="module", autouse=True)
def file_budget():
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"test_gates_fail.py took {elapsed:.1f} s, over its 30 s budget"


def _commutation_reductions() -> list[float]:
    """Criterion 9's deviation ratios on a 33/65/129 ladder (8/16/32 steps to t = 0.05)."""
    devs = []
    for n, steps in ((33, 8), (65, 16), (129, 32)):
        g = build_grid(1.0, 3.0, 2.0, n, n - 1)
        gam = bump_profile(g.r, 1.4, 2.5)[:, None] * (
            1 + 0.3 * np.sin(2 * np.pi * g.z / g.L_z)[None, :]
        )
        devs.append(commutation_check(EllipticSolver(g), gam, 0.05, 0.05 / steps))
    return [devs[0] / devs[1], devs[1] / devs[2]]


def _wrong_l1_robin_coefficient(monkeypatch):
    """Gamma's Robin wall d_r Gamma = (1/r_min) Gamma in place of (2/r_min) Gamma."""
    monkeypatch.setitem(elliptic.OPERATORS, "L1", replace(elliptic.OPERATORS["L1"], wall=1.0))


def test_wrong_l1_robin_coefficient_trips_the_commutation_gate(monkeypatch):
    # r e^(t L0) = e^(t L1) r needs d_r Gamma = (2/r_min) Gamma at the wall;
    # with 1/r_min the deviation stops shrinking under refinement
    assert min(_commutation_reductions()) >= 3.0
    _wrong_l1_robin_coefficient(monkeypatch)
    assert max(_commutation_reductions()) < 3.0


def test_wrong_l1_robin_coefficient_trips_the_energy_residual(monkeypatch):
    # criterion 2's data and dt on 129x128, to t = 0.1: the wall flux term of
    # (1.5) is that of the slip condition, so the wrong wall breaks the
    # balance (residual 4.4e-4 clean, 2.2e-2 defective)
    cfg = SolverConfig(
        r_min=1.0, R=5.0, L_z=4.0, n_r=129, n_z=128, dt=0.003, t_end=0.1,
        output_interval=0.05, init_kind="swirl_bump", amplitude=1.0,
        omega_amplitude=0.5, r_lo=1.1, r_hi=2.4, z_mode=1, checkpoint="none",
    )

    def residual():
        return energy_budget_check(run_simulation(cfg).records)

    assert residual() < 1e-3  # criterion 2's bound
    _wrong_l1_robin_coefficient(monkeypatch)
    assert residual() > 1e-3


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
    weighted = grid_module.weighted_integral

    def unweighted(grid, f):
        return float(2.0 * np.pi * grid.h_z * np.sum(radial_weights(grid)[:, None] * f))

    # every module that imported the quadrature by name
    for name, module in list(sys.modules.items()):
        if name.startswith("axicyl") and getattr(module, "weighted_integral", None) is weighted:
            monkeypatch.setattr(module, "weighted_integral", unweighted)
    dev, dev_h = deviations()
    assert dev < 1e-2 and dev_h >= dev


def test_zero_block_carry_trips_the_stream_residual(monkeypatch):
    g = build_grid(1.0, 3.0, 2.0, 65, 64)  # 63 unknown rows: 8 blocks of 8
    rng = np.random.default_rng(3)
    omega = rng.normal(size=g.shape)
    omega[0] = omega[-1] = 0.0

    def residual():
        s = EllipticSolver(g)
        return s.stream_residual(s.solve_stream(omega), omega)

    assert residual() < 1e-12
    sweep = elliptic._sweep

    def zero_carry(w, coef, weights, span, step, *scratch):
        # zero weights make every block's hand-on value, hence every carry, zero
        sweep(w, coef, np.zeros_like(weights), span, step, *scratch)

    monkeypatch.setattr(elliptic, "_sweep", zero_carry)
    assert residual() > 1e-12


def test_skipped_second_half_step_drops_the_mms_order(monkeypatch):
    # Strang splitting takes a Crank-Nicolson half step of L1 and of L0' on
    # each side of the Heun step.  Skipping the second pair, with the first
    # taking the whole dt, is Lie splitting: first order in time.
    mms = build_mms()

    def orders():
        levels = mms_convergence_study(levels=3, n_base=32, t_end=0.25, mms=mms)
        return [lv.order for lv in levels[1:]]

    assert all(1.8 <= o <= 2.2 for o in orders())  # criterion 1's gate
    step = EllipticSolver.heat_step
    calls = itertools.count()

    def lie(self, fhat, dt, op):
        # per Strang step: L1, L0' before the Heun step, then L1, L0' after it
        return step(self, fhat, 2 * dt, op) if next(calls) % 4 < 2 else fhat

    monkeypatch.setattr(EllipticSolver, "heat_step", lie)
    defective = orders()
    assert all(abs(o - 1.0) < 0.2 for o in defective), defective
