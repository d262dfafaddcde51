"""Acceptance gate: the twelve verification criteria at desk scale.

One test per criterion; each prints a PASS/FAIL line with the measured
quantities (run with -s to see them live).  A run that is a bundled
experiment loads its config from configs/, and criteria 7, 9 and 10 call
the library functions the CLI commands call; tolerances are the stated
ones.
"""

import math
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from axicyl.config import SolverConfig, load_config
from axicyl.diagnostics import (
    energy_budget_check,
    eps_sweep,
    identity_5_3_check,
    inequality_batch,
    swirl_bounds_check,
    vorticity_budgets_check,
)
from axicyl.elliptic import EllipticSolver, commutation_ladder, semigroup_experiment
from axicyl.evolution import picard_experiment, run_simulation
from axicyl.fields import bump_profile, state_from_dynamic
from axicyl.grid import build_grid
from axicyl.manufactured import mms_convergence_study

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def check(cid: int, ok: bool, detail: str) -> None:
    print(f"[criterion {cid:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def bundled(name: str) -> tuple[SolverConfig, dict[str, str]]:
    """The solver settings of configs/<name> and its whole key mapping."""
    mapping = load_config(CONFIGS / name)
    return SolverConfig.from_mapping(mapping), mapping


# -- shared runs -----------------------------------------------------------------


@pytest.fixture(scope="module")
def swirl_cfg():
    return bundled("energy_budget.cfg")[0]


@pytest.fixture(scope="module")
def swirl_run_129(swirl_cfg):
    return run_simulation(swirl_cfg)


@pytest.fixture(scope="module")
def swirl_run_257(swirl_cfg):
    return run_simulation(replace(swirl_cfg, n_r=257, n_z=256, dt=0.0015))


@pytest.fixture(scope="module")
def noswirl_run_129():
    cfg = SolverConfig(
        r_min=1.0,
        R=4.0,
        L_z=3.0,
        n_r=129,
        n_z=128,
        dt=0.002,
        t_end=0.5,
        output_interval=0.5,
        init_kind="no_swirl_bump",
        amplitude=1.0,
        omega_amplitude=1.0,
        r_lo=1.25,
        r_hi=2.75,
        checkpoint="none",
    )
    return run_simulation(cfg, record_every_step=True)


def test_criterion_1_manufactured_convergence():
    t0 = time.time()
    levels = mms_convergence_study(levels=3, n_base=64, t_end=0.25)
    elapsed = time.time() - t0
    orders = [lv.order for lv in levels[1:]]
    ok = all(1.8 <= o <= 2.2 for o in orders) and elapsed < 300
    check(
        1,
        ok,
        f"observed space-time orders {['%.3f' % o for o in orders]} in [1.8, 2.2], "
        f"runtime {elapsed:.0f}s < 300s",
    )


def test_criterion_2_energy_equality(swirl_run_129, swirl_run_257):
    res_c = energy_budget_check(swirl_run_129.records)
    res_f = energy_budget_check(swirl_run_257.records)
    flux_ok = all(
        r.bdry_flux >= -1e-15 for r in swirl_run_129.records
    ) and swirl_run_129.records[-1].bdry_flux > 0
    ok = res_c < 1e-3 and res_c / res_f >= 3.0 and flux_ok
    check(
        2,
        ok,
        f"residual {res_c:.3e} < 1e-3 at 128^2; shrink x{res_c / res_f:.2f} >= 3 "
        f"at 256^2 with dt halved; boundary flux accumulated and non-negative",
    )


def test_criterion_3_swirl_maximum_principle(swirl_run_129):
    # monotone scheme: exact discrete maximum principle, every step
    mono = run_simulation(bundled("monotone_max_principle.cfg")[0], record_every_step=True)
    sup0 = mono.records[0].sup_gamma
    mono_margin = max(r.margin_1_6 for r in mono.records)
    # default centered scheme at 128^2
    sup0_d = swirl_run_129.records[0].sup_gamma
    default_margin = max(r.margin_1_6 for r in swirl_run_129.records)
    ok = mono_margin <= 1e-12 * sup0 and default_margin <= 1e-6 * sup0_d
    check(
        3,
        ok,
        f"monotone margin {mono_margin:.2e} <= 0 (machine, {len(mono.records) - 1} steps); "
        f"centered margin {default_margin:.2e} <= 1e-6 * sup|Gamma_0|",
    )


def test_criterion_4_l4_swirl_bound(swirl_run_129):
    bound_scale = math.sqrt(
        swirl_run_129.records[0].sup_gamma * math.sqrt(swirl_run_129.records[0].e_kin)
    )
    margin = max(r.margin_1_7 for r in swirl_run_129.records)
    ok = margin <= 1e-8 * bound_scale
    check(4, ok, f"L4 bound margin {margin:.3e} <= 0 at every output (tol 1e-8 relative)")


def test_criterion_5_vorticity_budget(swirl_run_129, noswirl_run_129):
    swirl_rep = vorticity_budgets_check(swirl_run_129.records)
    ns_rep = vorticity_budgets_check(noswirl_run_129.records)
    ok = (
        swirl_rep.max_violation_1_11 <= 1e-10
        and ns_rep.max_violation_1_11 <= 1e-10
        and ns_rep.max_step_increase_om_over_r <= 1e-10
        and ns_rep.closure_residual_no_swirl < 1e-3
    )
    check(
        5,
        ok,
        f"lhs(1.11) <= E (viol {swirl_rep.max_violation_1_11:.2e}); no-swirl "
        f"||om/r||_2 non-increasing per step (max inc "
        f"{ns_rep.max_step_increase_om_over_r:.2e} <= 1e-10, "
        f"{len(noswirl_run_129.records) - 1} steps); closure residual "
        f"{ns_rep.closure_residual_no_swirl:.2e} < 1e-3",
    )


def test_criterion_6_gradient_identity():
    def dev_at(R, n_r, n_z):
        g = build_grid(1.0, R, 2.0, n_r, n_z)
        s = EllipticSolver(g)
        om = bump_profile(g.r, 1.4, 2.8)[:, None] * (
            0.6 + np.sin(2 * np.pi * g.z / g.L_z)
        )
        state = state_from_dynamic(s, 0.0, np.zeros(g.shape), om)
        return identity_5_3_check(state)

    dev = dev_at(5.0, 129, 64)
    dev_h = dev_at(5.0, 257, 128)
    dev_r = dev_at(7.0, 193, 64)  # same radial spacing, larger R
    ok = dev < 1e-2 and dev_h < dev and dev_r <= dev * 1.02
    check(
        6,
        ok,
        f"|  ||grad v||_2 - ||om||_2 | / ||om||_2 = {dev:.2e} < 1e-2 at 128^2, R = 5; "
        f"h refinement {dev_h:.2e} < {dev:.2e}; R = 7 gives {dev_r:.2e} "
        f"(identity exact on the truncated domain; R effect below noise)",
    )


def test_criterion_7_interpolation_suite():
    template, mapping = bundled("inequalities.cfg")
    q, p = float(mapping["ineq.q"]), float(mapping["ineq.p"])

    def batch(cfg, seeds, sample_seeds):
        solver = EllipticSolver(build_grid(cfg.r_min, cfg.R, cfg.L_z, cfg.n_r, cfg.n_z))
        return {r.inequality: r for r in inequality_batch(cfg, solver, seeds, sample_seeds, q, p)}

    rep_a = batch(template, range(100), (1000, 2000))
    rep_b = batch(template, range(100, 200), (1100, 2100))
    rep_f = batch(replace(template, n_r=129, n_z=128), range(100), (1000, 2000))

    violations = sum(
        rep[k].n_violations
        for rep in (rep_a, rep_b)
        for k in ("E1_7", "E5_7", "E5_8", "E5_8_chain")
    )
    total = sum(rep_a[k].n_samples + rep_b[k].n_samples for k in ("E5_8",))
    drift = []
    for key in ("E1_10", "E5_4", "E5_5", "E5_6", "B1", "B2"):
        ca, cb, cf = rep_a[key].max_ratio, rep_b[key].max_ratio, rep_f[key].max_ratio
        drift.append(abs(ca - cb) / max(ca, cb))
        drift.append(abs(ca - cf) / max(ca, cf))
    ok = violations == 0 and total >= 200 and max(drift) < 0.2
    check(
        7,
        ok,
        f"constant-free chain: {violations} violations over {total} samples; fitted "
        f"constants stable within {100 * max(drift):.1f}% (< 20%) across disjoint "
        f"batches and one refinement level",
    )


def test_criterion_8_semigroup_decay():
    t0 = time.time()
    results = semigroup_experiment()
    elapsed = time.time() - t0
    worst = max(abs(r.fitted - r.target) for r in results)
    ok = worst <= 0.08 and elapsed < 120
    lines = "; ".join(
        f"{r.op} p={'inf' if math.isinf(r.p) else int(r.p)} k={r.k}: "
        f"{r.fitted:+.3f} vs {r.target:.3f}"
        for r in results
    )
    check(
        8,
        ok,
        f"max exponent error {worst:.3f} <= 0.08 over 12 cases, runtime {elapsed:.0f}s "
        f"< 120s [{lines}]",
    )


def test_criterion_9_commutation():
    devs = [dev for _, _, dev in commutation_ladder(0.05, Counter())]
    r1 = devs[0] / devs[1]
    r2 = devs[1] / devs[2]
    ok = r1 >= 3.0 and r2 >= 3.0
    check(
        9,
        ok,
        f"commutation deviation {devs[0]:.2e} -> {devs[1]:.2e} -> {devs[2]:.2e}; "
        f"reduction x{r1:.2f}, x{r2:.2f} >= 3 per joint (h, dt) halving",
    )


def test_criterion_10_picard():
    cfg, m = bundled("picard.cfg")
    res, diff, tol = picard_experiment(
        cfg,
        float(m["picard.t_end"]),
        int(m["picard.j_max"]),
        float(m["picard.p"]),
        float(m["picard.dt"]),
    )
    ratios = res.ratios[:5]
    deltas_decreasing = all(b < a for a, b in zip(res.delta, res.delta[1:]))
    ok = (
        len(ratios) == 5
        and all(r < 1.0 for r in ratios)
        and deltas_decreasing
        and not res.diverged
        and diff < tol
    )
    check(
        10,
        ok,
        f"delta ratios {['%.3f' % r for r in ratios]} all < 1 with deltas strictly "
        f"decreasing; final iterate matches direct solver: {diff:.2e} < {tol:.2e}",
    )


def test_criterion_11_eps_sweep():
    template, mapping = bundled("eps_sweep.cfg")
    summaries = eps_sweep(template, [float(eps) for eps in mapping["sweep.eps"].split(",")])
    h1s = [s.sup_h1_proxy for s in summaries]
    variation = (max(h1s) - min(h1s)) / min(h1s)
    worst_res = max(s.res_energy_6_1 for s in summaries)
    ok = (
        all(s.status == "completed" for s in summaries)
        and variation < 0.5
        and worst_res < 1e-3
    )
    check(
        11,
        ok,
        f"eps in {{1, 1/2, 1/4, 1/8}} all completed; sup_t H1 proxy varies "
        f"{100 * variation:.2f}% < 50%; worst (6.1) residual {worst_res:.2e} < 1e-3",
    )


def test_criterion_12_global_regularity_smoke():
    res = run_simulation(bundled("smoke_large_swirl.cfg")[0])
    recs = res.records
    sup0 = recs[0].sup_gamma
    e0 = recs[0].e_kin
    r15 = energy_budget_check(recs)
    m16, m17 = swirl_bounds_check(recs)
    vb = vorticity_budgets_check(recs)
    bound_scale = math.sqrt(sup0 * math.sqrt(e0))
    ok = (
        res.status == "completed"
        and abs(sup0 - 5.0) < 0.05
        and 5.0 <= e0 <= 100.0
        and r15 < 1e-3
        and m16 <= 1e-6 * sup0
        and m17 <= 1e-8 * bound_scale
        and vb.max_violation_1_11 <= 1e-10
    )
    check(
        12,
        ok,
        f"sup|Gamma_0| = {sup0:.3f}, E_kin(0) = {e0:.1f}, ran to t = 2 with status "
        f"{res.status}; energy residual {r15:.2e} < 1e-3, max-principle margin "
        f"{m16:.2e}, L4 margin {m17:.2e}, (1.11) violation "
        f"{vb.max_violation_1_11:.2e}",
    )
