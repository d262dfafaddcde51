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
from dataclasses import dataclass, replace

import numpy as np

from .fields import AxisymState, bump_profile
from .grid import Grid, ddr, ddz, lp_norm, weighted_integral


# -- pointwise building blocks ------------------------------------------------


def velocity_gradient_squared(state: AxisymState) -> np.ndarray:
    """|grad v|^2 for v = (u_r, u_z), with the u_r/r metric term."""
    g = state.grid
    ur, uz = state.ur.values, state.uz.values
    return (
        ddr(g, ur) ** 2
        + ddz(g, ur) ** 2
        + (ur / g.rcol) ** 2
        + ddr(g, uz) ** 2
        + ddz(g, uz) ** 2
    )


def full_velocity_gradient_squared(state: AxisymState) -> np.ndarray:
    """|grad u|^2 of the full vector field, including u_th/r."""
    g = state.grid
    uth = state.uth.values
    return (
        velocity_gradient_squared(state)
        + ddr(g, uth) ** 2
        + ddz(g, uth) ** 2
        + (uth / g.rcol) ** 2
    )


@dataclass(frozen=True)
class DissipationSample:
    """Instantaneous budget integrands at one time."""

    diss_v: float
    diss_uth: float
    diss_sw: float
    flux: float
    grad_om_over_r: float
    om_diss: float


def dissipation_sample(state: AxisymState) -> DissipationSample:
    g = state.grid
    uth = state.uth.values
    om = state.omega.values
    q = om / g.rcol
    diss_v = weighted_integral(g, velocity_gradient_squared(state))
    diss_uth = weighted_integral(g, ddr(g, uth) ** 2 + ddz(g, uth) ** 2)
    diss_sw = weighted_integral(g, (uth / g.rcol) ** 2)
    # (2/r_min) * oint |u_th|^2 dH, dH = r_min dtheta dz
    flux = 4.0 * math.pi * g.h_z * float(np.sum(uth[0, :] ** 2))
    grad_q = weighted_integral(g, ddr(g, q) ** 2 + ddz(g, q) ** 2)
    om_diss = weighted_integral(g, ddr(g, om) ** 2 + ddz(g, om) ** 2 + q**2)
    return DissipationSample(diss_v, diss_uth, diss_sw, flux, grad_q, om_diss)


def boundary_leakage(state: AxisymState) -> float:
    """Mass of |fields| on the ring one node inside the truncation wall."""
    g = state.grid
    i = g.n_r - 2
    tot = sum(
        float(np.sum(np.abs(f.values[i, :])))
        for f in (state.Gamma, state.omega, state.ur, state.uth, state.uz)
    )
    return 2.0 * math.pi * g.r[i] * g.h_z * tot


def h1_proxy(state: AxisymState) -> float:
    """(||u||_2^2 + ||grad v||_2^2 + ||grad u_th||_2^2)^(1/2)."""
    g = state.grid
    uth = state.uth.values
    val = (
        state.kinetic_energy()
        + weighted_integral(g, velocity_gradient_squared(state))
        + weighted_integral(g, ddr(g, uth) ** 2 + ddz(g, uth) ** 2)
    )
    return math.sqrt(val)


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
    """All norms, budget terms, and inequality ratios at one output time.

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
    h1: float  # h1_proxy of the state; not a CSV column
    l2_grad_om_over_r: float = math.nan
    l2_grad_om: float = math.nan
    ratio_1_7: float = math.nan
    ratio_1_10: float = math.nan
    ratio_5_3: float = math.nan
    ratio_5_4: float = math.nan
    ratio_5_5: float = math.nan
    ratio_5_6: float = math.nan
    ratio_5_7: float = math.nan
    ratio_5_8: float = math.nan

    def csv_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, c.lower()) for c in CSV_COLUMNS)


def identity_5_3_check(state: AxisymState) -> float:
    """|  ||grad v||_2 - ||om||_2 | / max(||om||_2, tiny)."""
    g = state.grid
    grad_v = math.sqrt(weighted_integral(g, velocity_gradient_squared(state)))
    om2 = lp_norm(g, state.omega.values, 2)
    return abs(grad_v - om2) / max(om2, 1e-300)


def _safe_ratio(lhs: float, rhs: float) -> float:
    if rhs <= 0.0:
        return math.nan if lhs <= 0.0 else math.inf
    return lhs / rhs


def state_inequality_ratios(state: AxisymState) -> dict[str, float]:
    """Per-state lhs/(rhs without constant) for (1.7), (1.10), (5.3)-(5.8)."""
    g = state.grid
    ur, uth, uz, om = (
        state.ur.values,
        state.uth.values,
        state.uz.values,
        state.omega.values,
    )
    sup_gamma = lp_norm(g, state.Gamma.values, np.inf)
    l2_u = math.sqrt(state.kinetic_energy())
    l4_uth = lp_norm(g, uth, 4)
    v_mag = np.hypot(ur, uz)
    l2_v = lp_norm(g, v_mag, 2)
    l4_v = lp_norm(g, v_mag, 4)
    l2_om = lp_norm(g, om, 2)
    l4_om = lp_norm(g, om, 4)
    grad_om = math.sqrt(weighted_integral(g, ddr(g, om) ** 2 + ddz(g, om) ** 2))
    l2_uth_r = lp_norm(g, uth / g.rcol, 2)
    l4_uth_r = lp_norm(g, uth / g.rcol, 4)
    grad_v = math.sqrt(weighted_integral(g, velocity_gradient_squared(state)))
    l2_om_r = lp_norm(g, om / g.rcol, 2)
    grad_om_full = math.sqrt(grad_om**2 + l2_om_r**2)
    return {
        "E1_7": _safe_ratio(l4_uth, math.sqrt(sup_gamma) * math.sqrt(l2_u)),
        "E1_10": _safe_ratio(l4_v, l2_v**0.25 * (l2_v + l2_om) ** 0.75),
        "E5_3": _safe_ratio(grad_v, l2_om),
        "E5_4": _safe_ratio(lp_norm(g, ur, 4), lp_norm(g, ur, 2) ** 0.25 * l2_om**0.75),
        "E5_5": _safe_ratio(
            lp_norm(g, uz, 4), lp_norm(g, uz, 2) ** 0.25 * (lp_norm(g, uz, 2) + l2_om) ** 0.75
        ),
        "E5_6": _safe_ratio(l4_om, l2_om**0.25 * grad_om**0.75),
        "E5_7": _safe_ratio(grad_om_full, math.sqrt(grad_om**2 + l2_om_r**2)),
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

# identities and exact-in-quadrature bounds get the tight tolerance;
# scheme-order checks the loose one
DEFAULT_TOLERANCES = {
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

    @property
    def fitted_constant(self) -> float:
        return self.max_ratio


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


def random_scalar_samples(
    grid: Grid, n: int, seed: int, vanish_at_wall: bool, n_modes: int = 3
) -> list[np.ndarray]:
    """Smooth random fields; optionally vanishing at the inner wall (B.1 needs it)."""
    rng = np.random.default_rng(seed)
    width = grid.R - grid.r_min
    out = []
    for _ in range(n):
        vals = np.zeros(grid.shape)
        for _ in range(n_modes):
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
    scalar_samples_b1: list[np.ndarray] | None = None,
    scalar_samples_b2: list[np.ndarray] | None = None,
    q: float = 2.0,
    p: float = 4.0,
    tolerances: dict[str, float] | None = None,
) -> list[InequalityReport]:
    """Per-inequality reports over sample states and scalar fields.

    Constant-free inequalities must show zero violations; constant-bearing
    ones report the max ratio as the fitted constant.
    """
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
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
        tol_k = tol.get(key, 1e-8 if constant_free else math.inf)
        if key == "E5_3":
            violations = sum(1 for v in vals if abs(v - 1.0) > tol_k)
        elif constant_free:
            violations = sum(1 for v in vals if v > 1.0 + tol_k)
        else:
            violations = 0
        reports.append(
            InequalityReport(key, len(vals), violations, max(vals), tol_k, constant_free)
        )
    return sorted(reports, key=lambda r: r.inequality)


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


def eps_sweep(template, eps_list, threads: int = 1) -> list[EpsSummary]:
    """Run the template config on the family r_min = eps.

    The initial data recipe (support in r >= 1) is shared across runs, so
    norms of the data are eps-uniform by construction; each run keeps the
    template's radial spacing as the domain widens.  Per-run failures are
    recorded; the sweep continues.  Runs are independent and may execute
    concurrently (threads > 1).
    """
    from .evolution import run_simulation

    h_template = (template.R - template.r_min) / (template.n_r - 1)
    configs = []
    for eps in eps_list:
        n_r = 1 + round((template.R - float(eps)) / h_template)
        cfg = replace(template, r_min=float(eps), n_r=n_r)
        if cfg.r_support is not None and cfg.r_support[0] < 1.0:
            raise ValueError("eps-sweep initial data must be supported in r >= 1")
        configs.append((float(eps), cfg))

    def run_one(item):
        eps, cfg = item
        try:
            return _summarize_eps_run(eps, run_simulation(cfg))
        except Exception:
            return EpsSummary(eps, "failed", math.nan, math.nan, math.nan, math.nan, math.nan)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run_one, configs))
    return [run_one(item) for item in configs]
