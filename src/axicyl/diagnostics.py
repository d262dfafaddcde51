"""Norms, budgets, inequality ratios, and fitted constants.

Budgets tracked against the run records:

  energy:     E_kin(t) + 2*I_diss(t) + F(t) = E_kin(0), with
              I_diss = int_0^t (|grad v|^2 + |grad u_th|^2 + |u_th/r|^2),
              F = (2/r_min) int_0^t oint |u_th|^2 dH ds.
  swirl:      sup|Gamma(t)| <= sup|Gamma_0|   and
              ||u_th||_4 <= sup|Gamma_0|^(1/2) ||u_0||_2^(1/2).
  vorticity:  ||om/r||^2(t) + int_0^t ||grad(om/r)||^2
                  <= ||om_0/r||^2 + sup|Gamma_0|^2 ||u_0||_2^2 = E,
              and the omega-energy bound with an empirically fitted C.
  identity:   ||grad v||_2 = ||om||_2.

|grad v|^2 is the full cylindrical tensor norm, including the u_r/r
metric term; |grad(u_th e_th)|^2 = |grad u_th|^2 + |u_th/r|^2.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .config import ConfigError
from .elliptic import EllipticSolver
from .fields import AxisymState, bump_profile, make_initial_data
from .grid import Grid, build_grid, ddr, ddz, lp_norm, weighted_integral
from .grid import r_differences, z_differences


# -- pointwise building blocks ------------------------------------------------


def velocity_gradient_squared(grid: Grid, ur: np.ndarray, uz: np.ndarray) -> np.ndarray:
    """|grad v|^2 for v = (u_r, u_z), with the u_r/r metric term."""
    return (
        ddr(grid, ur) ** 2
        + ddz(grid, ur) ** 2
        + (ur / grid.rcol) ** 2
        + ddr(grid, uz) ** 2
        + ddz(grid, uz) ** 2
    )


def full_velocity_gradient_squared(
    grid: Grid, ur: np.ndarray, uth: np.ndarray, uz: np.ndarray
) -> np.ndarray:
    """|grad u|^2 of the full vector field, including u_th/r."""
    return (
        velocity_gradient_squared(grid, ur, uz)
        + ddr(grid, uth) ** 2
        + ddz(grid, uth) ** 2
        + (uth / grid.rcol) ** 2
    )


class DissipationSample(NamedTuple):
    """Instantaneous budget integrands at one time (or their time integrals)."""

    diss_v: float
    diss_uth: float
    diss_sw: float
    flux: float
    grad_om_over_r: float
    om_diss: float


def _row_squares(*fs: np.ndarray) -> np.ndarray:
    """sum_j f_ij^2 per row i, summed over the arrays fs."""
    rows = np.vecdot(fs[0], fs[0])
    for f in fs[1:]:
        rows += np.vecdot(f, f)
    return rows


def _velocity_gradient_integral(grid: Grid, ur: np.ndarray, uz: np.ndarray) -> float:
    """int |grad v|^2 (velocity_gradient_squared) from the rows' sums of
    squares of the raw differences (dissipation_sample)."""
    q = grid.factors
    dr_rows = _row_squares(r_differences(ur), r_differences(uz))
    dz_rows = _row_squares(z_differences(ur), z_differences(uz))
    return float(q.quad_dr @ dr_rows + q.quad_dz @ dz_rows + q.quad_r2 @ _row_squares(ur))


def dissipation_sample(state: AxisymState) -> DissipationSample:
    """The budget integrands of a state.

    Each is a sum of squares, so its integral is a radial quadrature
    vector times the rows' sums of squares: no squared field is formed.
    The derivatives' squares are those of the raw differences
    (grid.r_differences, grid.z_differences), whose (2 h)^-2 the vectors
    carry, as they carry the 1/r^2 of the terms over r (GridFactors).
    u_th = Gamma/r and omega/r take their z-differences from Gamma's and
    omega's.
    """
    g = state.grid
    q = g.factors
    uth, om = state.uth, state.omega
    dz_om_rows = _row_squares(z_differences(om))
    diss_v = _velocity_gradient_integral(g, state.ur, state.uz)
    dz_gamma_rows = _row_squares(z_differences(state.Gamma))
    diss_uth = q.quad_dr @ _row_squares(r_differences(uth)) + q.quad_r2_dz @ dz_gamma_rows
    diss_sw = q.quad_r2 @ _row_squares(uth)
    # (2/r_min) * oint |u_th|^2 dH, dH = r_min dtheta dz
    flux = 4.0 * math.pi * g.h_z * float(np.sum(uth[0, :] ** 2))
    grad_q = q.quad_dr @ _row_squares(r_differences(om / q.r)) + q.quad_r2_dz @ dz_om_rows
    om_diss = (
        q.quad_dr @ _row_squares(r_differences(om))
        + q.quad_dz @ dz_om_rows
        + q.quad_r2 @ _row_squares(om)
    )
    return DissipationSample(
        diss_v, float(diss_uth), float(diss_sw), flux, float(grad_q), float(om_diss)
    )


def boundary_leakage(state: AxisymState) -> float:
    """Mass of |fields| on the ring one node inside the truncation wall."""
    g = state.grid
    i = g.n_r - 2
    tot = sum(
        float(np.sum(np.abs(f[i, :])))
        for f in (state.Gamma, state.omega, state.ur, state.uth, state.uz)
    )
    return 2.0 * math.pi * g.r[i] * g.h_z * tot


# -- per-time record ----------------------------------------------------------

CSV_COLUMNS = (
    "t",
    "E_kin",
    "diss_v",
    "diss_uth",
    "diss_swirl_weight",
    "bdry_flux",
    "budget_residual_1_5",
    "sup_Gamma",
    "l4_uth",
    "l2_om_over_r",
    "l2_om",
    "E_bound_1_11",
    "lhs_1_11",
    "lhs_1_12",
    "margin_1_6",
    "margin_1_7",
    "dev_5_3",
)


@dataclass
class DiagnosticsRecord:
    """All norms and budget terms at one output time.

    diss_* and bdry_flux are the accumulated time integrals entering the
    energy equality (without their factors of 2; the residual applies
    them).  lhs/E fields refer to the two vorticity budgets.
    """

    t: float
    e_kin: float
    diss_v: float
    diss_uth: float
    diss_swirl_weight: float
    bdry_flux: float
    budget_residual_1_5: float
    sup_gamma: float
    l4_uth: float
    l2_om_over_r: float
    l2_om: float
    e_bound_1_11: float
    lhs_1_11: float
    lhs_1_12: float
    margin_1_6: float
    margin_1_7: float
    dev_5_3: float
    h1: float  # (||u||_2^2 + ||grad v||_2^2 + ||grad u_th||_2^2)^(1/2); not a CSV column

    def csv_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, c.lower()) for c in CSV_COLUMNS)


def deviation_5_3(grad_v_sq: float, l2_om: float) -> float:
    """|  ||grad v||_2 - ||om||_2 | / max(||om||_2, tiny), from ||grad v||_2^2 and ||om||_2."""
    return abs(math.sqrt(grad_v_sq) - l2_om) / max(l2_om, 1e-300)


def identity_5_3_check(state: AxisymState) -> float:
    """The (5.3) deviation of a state (deviation_5_3)."""
    g = state.grid
    grad_v_sq = _velocity_gradient_integral(g, state.ur, state.uz)
    return deviation_5_3(grad_v_sq, lp_norm(g, state.omega, 2))


def _safe_ratio(lhs: float, rhs: float) -> float:
    if rhs <= 0.0:
        return math.nan if lhs <= 0.0 else math.inf
    return lhs / rhs


def state_inequality_ratios(state: AxisymState) -> dict[str, float]:
    """Per-state lhs/(rhs without constant) for (1.7), (1.10), (5.3)-(5.8)."""
    g = state.grid
    ur, uth, uz, om = state.ur, state.uth, state.uz, state.omega
    sup_gamma = lp_norm(g, state.Gamma, np.inf)
    l2_u = math.sqrt(state.kinetic_energy())
    l4_uth = lp_norm(g, uth, 4)
    v_mag = np.hypot(ur, uz)
    l2_v = lp_norm(g, v_mag, 2)
    l4_v = lp_norm(g, v_mag, 4)
    l2_om = lp_norm(g, om, 2)
    l4_om = lp_norm(g, om, 4)
    dr_om, dz_om = ddr(g, om), ddz(g, om)
    grad_om = math.sqrt(weighted_integral(g, dr_om**2 + dz_om**2))
    l2_uth_r = lp_norm(g, uth / g.rcol, 2)
    l4_uth_r = lp_norm(g, uth / g.rcol, 4)
    grad_v = math.sqrt(weighted_integral(g, velocity_gradient_squared(g, ur, uz)))
    l2_om_r = lp_norm(g, om / g.rcol, 2)
    # ||grad(om e_th)||_2 in curl form: div(om e_th) = 0, and om vanishes on
    # both walls, so the cross term 2 int om d_r om dr telescopes to 0
    grad_om_curl = math.sqrt(weighted_integral(g, dz_om**2 + (dr_om + om / g.rcol) ** 2))
    return {
        "E1_7": _safe_ratio(l4_uth, math.sqrt(sup_gamma) * math.sqrt(l2_u)),
        "E1_10": _safe_ratio(l4_v, l2_v**0.25 * (l2_v + l2_om) ** 0.75),
        "E5_3": _safe_ratio(grad_v, l2_om),
        "E5_4": _safe_ratio(lp_norm(g, ur, 4), lp_norm(g, ur, 2) ** 0.25 * l2_om**0.75),
        "E5_5": _safe_ratio(
            lp_norm(g, uz, 4), lp_norm(g, uz, 2) ** 0.25 * (lp_norm(g, uz, 2) + l2_om) ** 0.75
        ),
        "E5_6": _safe_ratio(l4_om, l2_om**0.25 * grad_om**0.75),
        "E5_7": _safe_ratio(grad_om_curl, math.sqrt(grad_om**2 + l2_om_r**2)),
        "E5_8": _safe_ratio(l4_uth_r, l4_uth),
        "E5_8_chain": _safe_ratio(l4_uth, math.sqrt(sup_gamma) * math.sqrt(l2_uth_r)),
    }


# -- series-level checks --------------------------------------------------------


def energy_budget_check(records: list[DiagnosticsRecord]) -> float:
    """Max over t of the relative energy-equality residual."""
    if not records:
        raise ValueError("empty record series")
    return max(r.budget_residual_1_5 for r in records)


def swirl_bounds_check(records: list[DiagnosticsRecord]) -> tuple[float, float]:
    """(max maximum-principle margin, max L4-bound margin); both should be <= 0."""
    if not records:
        raise ValueError("empty record series")
    return max(r.margin_1_6 for r in records), max(r.margin_1_7 for r in records)


@dataclass(frozen=True)
class VorticityBudgetReport:
    """Outcome of the two vorticity budgets over a run."""

    max_violation_1_11: float  # max (lhs - E)/E, should be <= tolerance
    closure_residual_no_swirl: float  # (6.2)-equality residual; nan for swirl runs
    fitted_c_1_12: float  # smallest C closing the omega-energy bound
    max_step_increase_om_over_r: float  # relative per-record growth of ||om/r||_2


def vorticity_budgets_check(records: list[DiagnosticsRecord]) -> VorticityBudgetReport:
    if not records:
        raise ValueError("empty record series")
    first = records[0]
    e_bound = first.e_bound_1_11
    max_viol = max((r.lhs_1_11 - r.e_bound_1_11) / max(r.e_bound_1_11, 1e-300) for r in records)

    no_swirl = first.sup_gamma == 0.0
    closure = math.nan
    if no_swirl:
        base = first.l2_om_over_r**2
        closure = 0.0
        for r in records:
            diss_acc = r.lhs_1_11 - r.l2_om_over_r**2  # int_0^t ||grad(om/r)||^2
            closure = max(
                closure, abs(r.l2_om_over_r**2 + 2.0 * diss_acc - base) / max(base, 1e-300)
            )

    l2_om0_sq = first.l2_om**2
    sup_gamma0 = first.sup_gamma
    l2_u0 = math.sqrt(first.e_kin)
    denom = (e_bound**0.75 * math.sqrt(l2_u0) + sup_gamma0**2) * l2_u0**2
    fitted_c = 0.0
    if denom > 0:
        fitted_c = max(0.0, max((r.lhs_1_12 - l2_om0_sq) / denom for r in records))

    max_inc = 0.0
    for prev, cur in zip(records, records[1:]):
        max_inc = max(
            max_inc, (cur.l2_om_over_r - prev.l2_om_over_r) / max(first.l2_om_over_r, 1e-300)
        )
    return VorticityBudgetReport(max_viol, closure, fitted_c, max_inc)


# -- interpolation inequality harness -----------------------------------------

CONSTANT_FREE = {"E1_7", "E5_3", "E5_7", "E5_8", "E5_8_chain"}
# identities, violated by a ratio off 1 either way; the other constant-free
# inequalities are violated by a ratio above 1
IDENTITIES = {"E5_3", "E5_7"}

# identities and exact-in-quadrature bounds get the tight tolerance;
# scheme-order checks the loose one
TOLERANCES = {
    "E1_7": 1e-8,
    "E5_8": 1e-8,
    "E5_8_chain": 1e-8,
    "E5_7": 1e-12,
    "E5_3": 1e-2,
}


@dataclass
class InequalityReport:
    inequality: str
    n_samples: int
    n_violations: int
    max_ratio: float  # fitted constant for constant-bearing inequalities
    tolerance: float
    constant_free: bool


def sigma_exponent(q: float, p: float) -> float:
    """sigma = 3 (1/q - 1/p); rejected when >= 1 (outside the valid range)."""
    if not (1 <= q <= p):
        raise ValueError(f"need 1 <= q <= p, got q={q}, p={p}")
    sigma = 3.0 * (1.0 / q - (0.0 if math.isinf(p) else 1.0 / p))
    if sigma >= 1.0:
        raise ValueError(f"sigma = 3(1/q - 1/p) = {sigma} >= 1 is outside the valid range")
    return sigma


def gagliardo_nirenberg_ratio(
    grid: Grid, phi: np.ndarray, q: float, p: float, use_full_norm: bool
) -> float:
    """||phi||_p / (||phi||_q^(1-sigma) * denom^sigma).

    denom is ||grad phi||_q for the vanishing-trace form and the full
    W^(1,q) norm for the general form.
    """
    sigma = sigma_exponent(q, p)
    lp = lp_norm(grid, phi, p)
    lq = lp_norm(grid, phi, q)
    grad_mag = np.hypot(ddr(grid, phi), ddz(grid, phi))
    gq = lp_norm(grid, grad_mag, q)
    denom_base = (lq**q + gq**q) ** (1.0 / q) if use_full_norm else gq
    return _safe_ratio(lp, lq ** (1.0 - sigma) * denom_base**sigma)


def random_scalar_samples(grid: Grid, n: int, seed: int, vanish_at_wall: bool) -> list[np.ndarray]:
    """Smooth random fields, each a sum of three bump-times-Fourier-mode terms;
    optionally vanishing at the inner wall (B.1 needs it)."""
    rng = np.random.default_rng(seed)
    width = grid.R - grid.r_min
    out = []
    for _ in range(n):
        vals = np.zeros(grid.shape)
        for _ in range(3):
            lo = grid.r_min + rng.uniform(0.05, 0.45) * width
            hi = lo + rng.uniform(0.2, 0.5) * width
            hi = min(hi, grid.R - 0.02 * width)
            amp = rng.normal()
            m = rng.integers(0, 4)
            phase = rng.uniform(0, 2 * np.pi)
            vals += amp * bump_profile(grid.r, lo, hi)[:, None] * np.cos(
                2 * np.pi * m * grid.z / grid.L_z + phase
            )
        if not vanish_at_wall:
            # add a component with a non-trivial wall trace
            amp = rng.normal()
            prof = bump_profile(grid.r, 2 * grid.r_min - grid.R, grid.r_min + 0.5 * width)
            vals += amp * prof[:, None] * np.ones(grid.shape)
        else:
            vals[0, :] = 0.0
            vals[-1, :] = 0.0
        out.append(vals)
    return out


def interpolation_suite(
    grid: Grid,
    states: list[AxisymState],
    q: float,
    p: float,
    scalar_samples_b1: list[np.ndarray] | None = None,
    scalar_samples_b2: list[np.ndarray] | None = None,
) -> list[InequalityReport]:
    """Per-inequality reports over sample states and scalar fields.

    Constant-free inequalities must show zero violations; constant-bearing
    ones report the max ratio as the fitted constant.
    """
    ratios: dict[str, list[float]] = {}
    for state in states:
        for key, val in state_inequality_ratios(state).items():
            if math.isnan(val):
                continue  # 0/0 cases are skipped
            ratios.setdefault(key, []).append(val)
    for name, samples, full in (
        ("B1", scalar_samples_b1, False),
        ("B2", scalar_samples_b2, True),
    ):
        if samples is None:
            continue
        for phi in samples:
            if name == "B1" and np.max(np.abs(phi[0, :])) > 0:
                raise ValueError("B1 samples must vanish at the inner wall")
            val = gagliardo_nirenberg_ratio(grid, phi, q, p, use_full_norm=full)
            if not math.isnan(val):
                ratios.setdefault(name, []).append(val)

    reports = []
    for key, vals in ratios.items():
        constant_free = key in CONSTANT_FREE
        tol_k = TOLERANCES.get(key, 1e-8 if constant_free else math.inf)
        if key in IDENTITIES:
            violations = sum(1 for v in vals if abs(v - 1.0) > tol_k)
        elif constant_free:
            violations = sum(1 for v in vals if v > 1.0 + tol_k)
        else:
            violations = 0
        reports.append(
            InequalityReport(key, len(vals), violations, max(vals), tol_k, constant_free)
        )
    return sorted(reports, key=lambda r: r.inequality)


def inequality_batch(
    template, solver: EllipticSolver, seeds, sample_seeds: tuple[int, int], q: float, p: float
) -> list[InequalityReport]:
    """interpolation_suite over one batch of samples on the solver's grid.

    The states are template's data with init.kind = random_modes, one per
    seed; as many B1 and B2 scalar samples are drawn from the two
    sample_seeds.
    """
    states = [
        make_initial_data(solver, replace(template, init_kind="random_modes", seed=seed))
        for seed in seeds
    ]
    seed_b1, seed_b2 = sample_seeds
    b1 = random_scalar_samples(solver.grid, len(states), seed=seed_b1, vanish_at_wall=True)
    b2 = random_scalar_samples(solver.grid, len(states), seed=seed_b2, vanish_at_wall=False)
    return interpolation_suite(
        solver.grid, states, q, p, scalar_samples_b1=b1, scalar_samples_b2=b2
    )


# -- epsilon sweep -------------------------------------------------------------


@dataclass
class EpsSummary:
    eps: float
    status: str
    sup_h1_proxy: float
    res_energy_6_1: float
    closure_6_2: float
    fitted_c_6_3: float
    max_leakage: float
    error: str = ""  # "ExceptionType: message" of a failed run


def _summarize_eps_run(eps: float, result) -> EpsSummary:
    recs = result.records
    sup_h1 = max(r_.h1 for r_ in recs)
    vort = vorticity_budgets_check(recs)
    first = recs[0]
    l2_om0 = first.l2_om
    l2_u0 = math.sqrt(first.e_kin)
    denom = first.l2_om_over_r**1.5 * l2_u0**2.5
    c63 = 0.0
    if denom > 0:
        c63 = max(0.0, max((r_.lhs_1_12 - l2_om0**2) / denom for r_ in recs))
    return EpsSummary(
        eps,
        result.status,
        sup_h1,
        energy_budget_check(recs),
        vort.closure_residual_no_swirl,
        c63,
        result.max_leakage,
    )


def eps_sweep(template, eps_list) -> list[EpsSummary]:
    """Run the template config on the family r_min = eps.

    The initial data recipe (support in r >= 1) is shared across runs, so
    norms of the data are eps-uniform by construction; each run keeps the
    template's radial spacing as the domain widens.  An eps that gives no
    valid grid, or initial data that cannot be built on its grid, is a
    ConfigError before any run starts; the initial states are built here,
    one solver each, and each run steps its own.  A run that fails is
    recorded with its exception and the sweep continues.  The runs are
    independent and go in threads, one per eps up to the CPU count; numpy
    releases the GIL for much of each step, so the runs overlap.
    """
    from concurrent.futures import ThreadPoolExecutor

    from .evolution import run_simulation

    if template.r_lo is not None and template.r_lo < 1.0:
        raise ConfigError(
            f"init.r_lo must be >= 1 in an eps sweep (data supported in r >= 1), "
            f"got {template.r_lo}"
        )
    h_template = (template.R - template.r_min) / (template.n_r - 1)
    runs = []
    for eps in map(float, eps_list):
        try:
            n_r = 1 + round((template.R - eps) / h_template)
            cfg = replace(template, r_min=eps, n_r=n_r)
        except (ValueError, OverflowError) as exc:  # the grid check, or a non-finite eps
            raise ConfigError(f"sweep.eps = {eps}: {exc}") from exc
        grid = build_grid(cfg.r_min, cfg.R, cfg.L_z, cfg.n_r, cfg.n_z)
        runs.append((eps, cfg, make_initial_data(EllipticSolver(grid), cfg)))

    def run_one(item):
        eps, cfg, state = item
        try:
            return _summarize_eps_run(eps, run_simulation(cfg, initial_state=state))
        except Exception as exc:  # one failed run must not end the sweep
            nan = math.nan
            error = f"{type(exc).__name__}: {exc}"
            return EpsSummary(eps, "failed", nan, nan, nan, nan, nan, error)

    workers = max(1, min(len(runs), os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_one, runs))
