"""Every gate can fail: each test seeds one known defect and checks that the
gate meant to catch it trips, next to the clean code passing the same gate.

The defects are monkeypatched, so the tree itself never holds one.  The
grids are small; the whole file stays within a 30 s budget.
"""

import itertools
import time

import numpy as np
import pytest

from axicyl import elliptic
from axicyl.elliptic import EllipticSolver, commutation_check
from axicyl.fields import bump_profile
from axicyl.grid import build_grid
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


def test_wrong_l1_robin_coefficient_trips_the_commutation_gate(monkeypatch):
    # r e^(t L0) = e^(t L1) r needs d_r Gamma = (2/r_min) Gamma at the wall;
    # with 1/r_min the deviation stops shrinking under refinement
    assert min(_commutation_reductions()) >= 3.0
    monkeypatch.setitem(elliptic.HEAT_WALLS, "L1", 1.0)
    assert max(_commutation_reductions()) < 3.0


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
