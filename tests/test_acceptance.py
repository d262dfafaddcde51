"""Acceptance gate: the twelve verification criteria at desk scale.

One test per criterion; each prints a PASS/FAIL line with the measured
quantities (run with -s to see them live).  The bundled experiments run
once, through the CLI (scripts/run_all_experiments.run_all), and the
criteria read the CSVs and manifests it writes: 1, the 128^2 half of 2,
3 (the monotone run records every step), 4, the swirl half of 5, 7's
chain check, and 8 to 12.  The runs no bundled config describes stay
library calls: 2's 257^2 run, 5's no-swirl run (recorded at every step),
6's states and 7's seeded batches.  Tolerances are the stated ones.
"""

import csv
import json
import math
import runpy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import run_config

from axicyl.config import SolverConfig, load_config
from axicyl.diagnostics import (
    DiagnosticsRecord,
    energy_budget_check,
    identity_5_3_check,
    inequality_batch,
    vorticity_budgets_check,
)
from axicyl.elliptic import EllipticSolver
from axicyl.fields import bump_profile, state_from_dynamic
from axicyl.grid import build_grid

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
run_all = runpy.run_path(str(ROOT / "scripts" / "run_all_experiments.py"))["run_all"]


def check(cid: int, ok: bool, detail: str) -> None:
    print(f"[criterion {cid:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {cid}: {detail}"


def bundled(name: str) -> tuple[SolverConfig, dict[str, str]]:
    """The solver settings of configs/<name> and its whole key mapping."""
    mapping = load_config(CONFIGS / name)
    return SolverConfig.from_mapping(mapping), mapping


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_manifest(out_dir: Path) -> dict:
    return json.loads((out_dir / "manifest.json").read_text())


def read_records(path: Path) -> list[DiagnosticsRecord]:
    """The records of a diagnostics.csv (17 significant digits parse back exactly)."""
    return [
        DiagnosticsRecord(**{col: float(v) for col, v in row.items()})
        for row in read_csv(path)
    ]


# -- shared runs -----------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Every bundled experiment through the CLI, once: the output root
    (one directory per config) and each config's wall seconds."""
    out = tmp_path_factory.mktemp("bundled")
    runs = run_all(out)
    failed = [
        f"{cfg_name} exited {code}: "
        f"{read_manifest(out / cfg_name.removesuffix('.cfg'))['extra'].get('error')}"
        for _, cfg_name, code, _ in runs
        if code != 0
    ]
    assert not failed, "; ".join(failed)
    return out, {cfg_name: seconds for _, cfg_name, _, seconds in runs}


@pytest.fixture(scope="module")
def swirl_records_129(cli_runs):
    return read_records(cli_runs[0] / "energy_budget" / "diagnostics.csv")


@pytest.fixture(scope="module")
def swirl_run_257():
    cfg = bundled("energy_budget.cfg")[0]
    return run_config(replace(cfg, n_r=257, n_z=256, dt=0.0015))


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
        output_interval=0.002,
        init_kind="no_swirl_bump",
        amplitude=1.0,
        omega_amplitude=1.0,
        r_lo=1.25,
        r_hi=2.75,
    )
    return run_config(cfg)


def test_criterion_1_manufactured_convergence(cli_runs):
    out, seconds = cli_runs
    rows = read_csv(out / "mms" / "mms_orders.csv")
    orders = [float(row["observed_order"]) for row in rows[1:]]
    elapsed = seconds["mms.cfg"]
    ok = all(1.8 <= o <= 2.2 for o in orders) and elapsed < 300
    check(
        1,
        ok,
        f"observed space-time orders {['%.3f' % o for o in orders]} in [1.8, 2.2], "
        f"runtime {elapsed:.0f}s < 300s",
    )


def test_criterion_2_energy_equality(swirl_records_129, swirl_run_257):
    res_c = energy_budget_check(swirl_records_129)
    res_f = energy_budget_check(swirl_run_257.records)
    flux_ok = all(
        r.bdry_flux >= -1e-15 for r in swirl_records_129
    ) and swirl_records_129[-1].bdry_flux > 0
    ok = res_c < 1e-3 and res_c / res_f >= 3.0 and flux_ok
    check(
        2,
        ok,
        f"residual {res_c:.3e} < 1e-3 at 128^2; shrink x{res_c / res_f:.2f} >= 3 "
        f"at 256^2 with dt halved; boundary flux accumulated and non-negative",
    )


def test_criterion_3_swirl_maximum_principle(cli_runs, swirl_records_129):
    # monotone scheme: exact discrete maximum principle, every step
    mono = read_records(cli_runs[0] / "monotone_max_principle" / "diagnostics.csv")
    sup0 = mono[0].sup_Gamma
    mono_margin = max(r.margin_1_6 for r in mono)
    # default centered scheme at 128^2
    sup0_d = swirl_records_129[0].sup_Gamma
    default_margin = max(r.margin_1_6 for r in swirl_records_129)
    ok = mono_margin <= 1e-12 * sup0 and default_margin <= 1e-6 * sup0_d
    check(
        3,
        ok,
        f"monotone margin {mono_margin:.2e} <= 0 (machine, {len(mono) - 1} steps); "
        f"centered margin {default_margin:.2e} <= 1e-6 * sup|Gamma_0|",
    )


def test_criterion_4_l4_swirl_bound(swirl_records_129):
    first = swirl_records_129[0]
    bound_scale = math.sqrt(first.sup_Gamma * math.sqrt(first.E_kin))
    margin = max(r.margin_1_7 for r in swirl_records_129)
    ok = margin <= 1e-8 * bound_scale
    check(4, ok, f"L4 bound margin {margin:.3e} <= 0 at every output (tol 1e-8 relative)")


def test_criterion_5_vorticity_budget(swirl_records_129, noswirl_run_129):
    swirl_rep = vorticity_budgets_check(swirl_records_129)
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


# the constant-free inequalities that hold at every resolution; the (5.3)
# identity is off by O(h^2) and checked as a refinement by criterion 6
CHAIN = ("E1_7", "E5_7", "E5_8", "E5_8_chain")


def test_criterion_7_interpolation_suite(cli_runs):
    template, mapping = bundled("inequalities.cfg")
    q, p = float(mapping["ineq.q"]), float(mapping["ineq.p"])

    def batch(cfg, seeds, sample_seeds):
        solver = EllipticSolver(cfg.grid)
        return {r.inequality: r for r in inequality_batch(cfg, solver, seeds, sample_seeds, q, p)}

    rep_a = batch(template, range(100), (1000, 2000))
    rep_b = batch(template, range(100, 200), (1100, 2100))
    rep_f = batch(replace(template, n_r=129, n_z=128), range(100), (1000, 2000))

    violations = sum(rep[k].n_violations for rep in (rep_a, rep_b) for k in CHAIN)
    total = sum(rep_a[k].n_samples + rep_b[k].n_samples for k in ("E5_8",))
    drift = []
    for key in ("E1_10", "E5_4", "E5_5", "E5_6", "B1", "B2"):
        ca, cb, cf = rep_a[key].max_ratio, rep_b[key].max_ratio, rep_f[key].max_ratio
        drift.append(abs(ca - cb) / max(ca, cb))
        drift.append(abs(ca - cf) / max(ca, cf))

    out = cli_runs[0] / "inequalities"
    rows = {row["inequality"]: row for row in read_csv(out / "inequalities.csv")}
    cli_violations = sum(int(rows[k]["n_violations"]) for k in CHAIN)
    counted = sum(int(row["n_violations"]) for row in rows.values() if row["constant_free"] == "1")
    reported = read_manifest(out)["extra"]["total_violations"]
    e5_3 = rows["E5_3"]
    ok = (
        violations == 0
        and total >= 200
        and max(drift) < 0.2
        and cli_violations == 0
        and reported == counted
    )
    check(
        7,
        ok,
        f"constant-free chain: {violations} violations over {total} samples; fitted "
        f"constants stable within {100 * max(drift):.1f}% (< 20%) across disjoint "
        f"batches and one refinement level; axicyl inequalities: {cli_violations} "
        f"chain violations, manifest total_violations {reported} (CSV: {counted}), "
        f"E5_3 off its tolerance in {e5_3['n_violations']} of {e5_3['n_samples']} "
        f"samples (open)",
    )


def test_criterion_8_semigroup_decay(cli_runs):
    out, seconds = cli_runs
    rows = read_csv(out / "semigroup" / "semigroup_fits.csv")
    fits = [(float(row["fitted_exponent"]), float(row["target_exponent"])) for row in rows]
    worst = max(abs(fitted - target) for fitted, target in fits)
    elapsed = seconds["semigroup.cfg"]
    ok = worst <= 0.08 and elapsed < 120
    lines = "; ".join(
        f"{row['op']} p={row['p']} k={row['k']}: {fitted:+.3f} vs {target:.3f}"
        for row, (fitted, target) in zip(rows, fits)
    )
    check(
        8,
        ok,
        f"max exponent error {worst:.3f} <= 0.08 over {len(rows)} cases, runtime "
        f"{elapsed:.0f}s < 120s [{lines}]",
    )


def test_criterion_9_commutation(cli_runs):
    rows = read_csv(cli_runs[0] / "semigroup" / "commutation.csv")
    devs = [float(row["deviation"]) for row in rows]
    r1 = devs[0] / devs[1]
    r2 = devs[1] / devs[2]
    ok = r1 >= 3.0 and r2 >= 3.0
    check(
        9,
        ok,
        f"commutation deviation {devs[0]:.2e} -> {devs[1]:.2e} -> {devs[2]:.2e}; "
        f"reduction x{r1:.2f}, x{r2:.2f} >= 3 per joint (h, dt) halving",
    )


def test_criterion_10_picard(cli_runs):
    out = cli_runs[0] / "picard"
    rows = read_csv(out / "picard.csv")
    extra = read_manifest(out)["extra"]
    diff, tol = extra["direct_match_l2"], extra["direct_match_tolerance"]
    deltas = [float(row["delta_j"]) for row in rows if row["delta_j"]]
    ratios = [float(row["delta_ratio"]) for row in rows if row["delta_ratio"]][:5]
    deltas_decreasing = all(b < a for a, b in zip(deltas, deltas[1:]))
    ok = (
        len(ratios) == 5
        and all(r < 1.0 for r in ratios)
        and deltas_decreasing
        and not extra["diverged"]
        and diff < tol
    )
    check(
        10,
        ok,
        f"delta ratios {['%.3f' % r for r in ratios]} all < 1 with deltas strictly "
        f"decreasing; final iterate matches direct solver: {diff:.2e} < {tol:.2e}",
    )


def test_criterion_11_eps_sweep(cli_runs):
    rows = read_csv(cli_runs[0] / "eps_sweep" / "eps_sweep.csv")
    h1s = [float(row["sup_h1_proxy"]) for row in rows]
    variation = (max(h1s) - min(h1s)) / min(h1s)
    worst_res = max(float(row["res_energy_6_1"]) for row in rows)
    ok = (
        all(row["status"] == "completed" for row in rows)
        and variation < 0.5
        and worst_res < 1e-3
    )
    check(
        11,
        ok,
        f"eps in {{1, 1/2, 1/4, 1/8}} all completed; sup_t H1 proxy varies "
        f"{100 * variation:.2f}% < 50%; worst (6.1) residual {worst_res:.2e} < 1e-3",
    )


def test_criterion_12_global_regularity_smoke(cli_runs):
    out = cli_runs[0] / "smoke_large_swirl"
    status = read_manifest(out)["status"]
    recs = read_records(out / "diagnostics.csv")
    sup0 = recs[0].sup_Gamma
    e0 = recs[0].E_kin
    r15 = energy_budget_check(recs)
    m16 = max(r.margin_1_6 for r in recs)
    m17 = max(r.margin_1_7 for r in recs)
    vb = vorticity_budgets_check(recs)
    bound_scale = math.sqrt(sup0 * math.sqrt(e0))
    ok = (
        status == "completed"
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
        f"{status}; energy residual {r15:.2e} < 1e-3, max-principle margin "
        f"{m16:.2e}, L4 margin {m17:.2e}, (1.11) violation "
        f"{vb.max_violation_1_11:.2e}",
    )
