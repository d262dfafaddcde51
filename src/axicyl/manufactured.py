"""Manufactured solutions for the coupled swirl/vorticity system.

The exact fields are compactly supported polynomial bumps in r times a
single Fourier mode in z and a smooth time factor.  Degree-8 edge zeros
keep everything C^7 at the support boundary, so all discrete operators
see smooth fields and the scheme's second order is observable.

Given psi* and Gamma*, the remaining fields and the forcing terms follow
symbolically:

    omega*  = -( d_r((1/r) d_r psi*) + (1/r) d_zz psi* )
    u_r*    = -(1/r) d_z psi*,  u_z* = (1/r) d_r psi*
    S_Gamma = d_t Gamma* + v*.grad Gamma* - L1 Gamma*
    S_omega = d_t omega* + v*.grad omega* - (u_r*/r) omega* - L0 omega*
              - d_z(Gamma*^2)/r^3

so the solver, fed (S_Gamma, S_omega), should reproduce (Gamma*, omega*).

Every one of these fields is separable, a short sum
sum_i a_i(r) Z_i(z) T_i(t) over monomials Z_i T_i in sin(k z), cos(k z),
t, cos t and sin t.  sympy derives them with the radial profile left
undefined: P(r) and its r-derivatives are plain symbols, and d/dr acts
through them by the chain rule.  So each a_i depends on r, P and P's
first four derivatives alone.  Bound to a grid, the a_i and Z_i are
tabulated once, and a field at time t is one (n_r x m) . (m x n_z)
product, m <= 9.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .grid import Grid

N_DERIVS = 5  # the profile and its first four r-derivatives


def _bump_derivatives(r: np.ndarray, lo: float, hi: float) -> list[np.ndarray]:
    """The first N_DERIVS r-derivatives (from the zeroth) of the bump
    P = ((r-lo)(hi-r))^8 / max on (lo, hi), zero outside.

    With s = (r - mid) / half and u = 1 - s^2 = (1-s)(1+s), P = u^8 and
    each derivative is a short sum of c u^a s^b, built by
    d/ds (u^a s^b) = -2a u^(a-1) s^(b+1) + b u^a s^(b-1).  This stays
    within a few ulps of the sup, where the expanded degree-16 polynomial
    loses hundreds.
    """
    half = (hi - lo) / 2
    s = (r - (lo + hi) / 2) / half
    u = (1 - s) * (1 + s)
    inside = (r > lo) & (r < hi)
    terms = {(8, 0): 1.0}
    out = []
    for k in range(N_DERIVS):
        value = sum(c * u**a * s**b for (a, b), c in terms.items()) / half**k
        out.append(np.where(inside, value, 0.0))
        terms, last = defaultdict(float), terms
        for (a, b), c in last.items():
            if a:
                terms[a - 1, b + 1] -= 2 * a * c
            if b:
                terms[a, b - 1] += b * c
    return out


@dataclass
class ManufacturedSolution:
    """Symbolic exact solution, in separable form, with grid-bound evaluators.

    exprs holds Gamma*, omega*, S_Gamma and S_omega in terms of r, z, t
    and symbols p0, p1, ... for the radial profile P(r) and its
    r-derivatives; the profile is the degree-8 bump on `support`.  terms
    maps the same names to (coefficients, exps): coefficients(r, p0, ...,
    p4) returns the m radial coefficients a_i, and row i of the
    (m, 5) array exps holds the powers of sin(k z), cos(k z), t, cos t and
    sin t in monomial i, with k = 2 pi / L_z.
    """

    r_min: float
    R: float
    L_z: float
    support: tuple[float, float]
    exprs: dict
    terms: dict

    def bind(self, grid: Grid):
        """Evaluators t -> array on the grid mesh, keyed gamma, omega,
        source_gamma and source_omega."""
        derivs = _bump_derivatives(grid.r, *self.support)
        kz = 2.0 * np.pi / self.L_z
        sin_z, cos_z = np.sin(kz * grid.z), np.cos(kz * grid.z)

        def at(coefficients, exps):
            a = np.column_stack(
                [np.broadcast_to(c, grid.r.shape) for c in coefficients(grid.r, *derivs)]
            )
            zm = sin_z ** exps[:, :1] * cos_z ** exps[:, 1:2]
            t_exp, cos_exp, sin_exp = exps[:, 2:].T
            return lambda t: (a * (t**t_exp * math.cos(t) ** cos_exp * math.sin(t) ** sin_exp)) @ zm

        return {name: at(*term) for name, term in self.terms.items()}


def build_mms() -> ManufacturedSolution:
    """The manufactured pair on [1, 2] x [0, 1): psi* = 0.12 P sin(k z) (1 + t/2)
    and Gamma* = 0.6 P (1 + cos(k z)/2) cos t, P the degree-8 bump on the
    middle 76 % of [1, 2]."""
    r_min, R, L_z = 1.0, 2.0, 1.0
    amp_psi, amp_gamma, pad = 0.12, 0.6, 0.12
    r, z, t = sp.symbols("r z t", real=True)
    # the profile P(r) and its r-derivatives as plain symbols p0, p1, ...
    p = sp.symbols(f"p0:{N_DERIVS + 1}")
    lo = r_min + pad * (R - r_min)
    hi = R - pad * (R - r_min)
    kz = 2 * sp.pi / L_z

    def d_r(f, n=1):
        """n-th total r-derivative, by the chain rule through the p_k."""
        for _ in range(n):
            f = sp.diff(f, r) + sum(sp.diff(f, p[k]) * p[k + 1] for k in range(N_DERIVS))
        return f

    psi = amp_psi * p[0] * sp.sin(kz * z) * (1 + t / 2)
    gamma = amp_gamma * p[0] * (1 + sp.Rational(1, 2) * sp.cos(kz * z)) * sp.cos(t)

    omega = -(d_r(d_r(psi) / r) + sp.diff(psi, z, 2) / r)
    ur = -sp.diff(psi, z) / r
    uz = d_r(psi) / r

    def laplace(f):
        return d_r(f, 2) + d_r(f) / r + sp.diff(f, z, 2)

    l1_gamma = laplace(gamma) - 2 / r * d_r(gamma)
    l0_omega = laplace(omega) - omega / r**2
    adv = lambda f: ur * d_r(f) + uz * sp.diff(f, z)

    s_gamma = sp.diff(gamma, t) + adv(gamma) - l1_gamma
    s_omega = (
        sp.diff(omega, t)
        + adv(omega)
        - ur / r * omega
        - l0_omega
        - sp.diff(gamma**2, z) / r**3
    )

    exprs = {"gamma": gamma, "omega": omega, "source_gamma": s_gamma, "source_omega": s_omega}
    gens = (sp.sin(kz * z), sp.cos(kz * z), t, sp.cos(t), sp.sin(t))
    terms = {}
    for name, e in exprs.items():
        assert p[N_DERIVS] not in e.free_symbols, f"{name} needs more profile derivatives"
        poly = sp.Poly(e, *gens)
        coefficients = sp.lambdify((r, *p[:N_DERIVS]), poly.coeffs(), "numpy", cse=True)
        terms[name] = (coefficients, np.array(poly.monoms()))
    return ManufacturedSolution(r_min, R, L_z, (lo, hi), exprs, terms)


@dataclass
class MMSLevel:
    n: int
    h: float
    dt: float
    err_gamma: float
    err_omega: float
    err_combined: float
    order: float  # nan on the first level


def mms_convergence_study(
    levels: int, n_base: int, t_end: float, mms: ManufacturedSolution | None = None
) -> list[MMSLevel]:
    """Refinement ladder n_base, 2 n_base, ... with dt halved alongside h.

    The coarsest dt is 0.4 h; the scheme is the default one (centered
    advection, Crank-Nicolson diffusion).

    The error is the relative L2 distance of (Gamma, omega) from the
    exact fields at t_end; consecutive-level ratios give the observed
    space-time order.
    """
    from .config import SolverConfig
    from .elliptic import EllipticSolver
    from .evolution import run_simulation
    from .fields import state_from_dynamic
    from .grid import build_grid, lp_norm

    if mms is None:
        mms = build_mms()
    dt_base = 0.4 * (mms.R - mms.r_min) / n_base
    out: list[MMSLevel] = []
    for lvl in range(levels):
        n = n_base * 2**lvl
        steps = max(1, int(round(t_end / (dt_base / 2**lvl))))
        dt = t_end / steps
        grid = build_grid(mms.r_min, mms.R, mms.L_z, n + 1, n)
        bound = mms.bind(grid)
        state0 = state_from_dynamic(
            EllipticSolver(grid), 0.0, bound["gamma"](0.0), bound["omega"](0.0)
        )
        cfg = SolverConfig(
            r_min=mms.r_min,
            R=mms.R,
            L_z=mms.L_z,
            n_r=n + 1,
            n_z=n,
            dt=dt,
            cfl=1.0,
            t_end=t_end,
            output_interval=t_end,
        )
        result = run_simulation(
            cfg, sources=(bound["source_gamma"], bound["source_omega"]), initial_state=state0
        )
        st = result.final_state
        ref_g = bound["gamma"](t_end)
        ref_w = bound["omega"](t_end)
        scale_g = max(lp_norm(grid, ref_g, 2), 1e-300)
        scale_w = max(lp_norm(grid, ref_w, 2), 1e-300)
        err_g = lp_norm(grid, st.Gamma - ref_g, 2) / scale_g
        err_w = lp_norm(grid, st.omega - ref_w, 2) / scale_w
        err = math.hypot(err_g, err_w)
        order = math.nan if not out else math.log2(out[-1].err_combined / err)
        out.append(MMSLevel(n, grid.h_r, dt, err_g, err_w, err, order))
    return out
