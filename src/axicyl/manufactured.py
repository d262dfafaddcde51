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
t, cos t and sin t, and each radial coefficient a_i is a sum of terms
c r^a p0^n0 ... p4^n4, p_k the k-th r-derivative of the radial profile
P.  TERMS lists those terms, 55 in all.  tests/mms_derivation.py derives
them with sympy, and test_manufactured.py checks this table against that
derivation term by term.  Bound to a grid, each distinct radial monomial
r^a p0^n0 ... p4^n4 is tabulated once, the a_i and Z_i follow, and a
field at time t is one (n_r x m) . (m x n_z) product, m <= 9.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .config import SolverConfig
from .elliptic import EllipticSolver
from .evolution import BlowupError, run_simulation
from .fields import state_from_dynamic
from .grid import Grid, lp_norm

N_DERIVS = 5  # the profile and its first four r-derivatives
FIELDS = ("gamma", "omega", "source_gamma", "source_omega")

# One row per radial term of a field on L_z = 1 (k = 2 pi): the field, the
# exponents of sin(k z), cos(k z), t, cos t and sin t in its monomial, the
# coefficient c, the power a of r and the exponents n0..n4 of p0..p4.
TERMS = (
    ("gamma", (0, 1, 0, 1, 0), 0.3, 0, (1, 0, 0, 0, 0)),
    ("gamma", (0, 0, 0, 1, 0), 0.6, 0, (1, 0, 0, 0, 0)),
    ("omega", (1, 0, 1, 0, 0), 2.368705056261446, -1, (1, 0, 0, 0, 0)),
    ("omega", (1, 0, 1, 0, 0), -0.06, -1, (0, 0, 1, 0, 0)),
    ("omega", (1, 0, 1, 0, 0), 0.06, -2, (0, 1, 0, 0, 0)),
    ("omega", (1, 0, 0, 0, 0), 4.737410112522892, -1, (1, 0, 0, 0, 0)),
    ("omega", (1, 0, 0, 0, 0), -0.12, -1, (0, 0, 1, 0, 0)),
    ("omega", (1, 0, 0, 0, 0), 0.12, -2, (0, 1, 0, 0, 0)),
    ("source_gamma", (2, 0, 1, 1, 0), -0.11309733552923255, -1, (1, 1, 0, 0, 0)),
    ("source_gamma", (2, 0, 0, 1, 0), -0.2261946710584651, -1, (1, 1, 0, 0, 0)),
    ("source_gamma", (0, 2, 1, 1, 0), -0.11309733552923255, -1, (1, 1, 0, 0, 0)),
    ("source_gamma", (0, 2, 0, 1, 0), -0.2261946710584651, -1, (1, 1, 0, 0, 0)),
    ("source_gamma", (0, 1, 1, 1, 0), -0.2261946710584651, -1, (1, 1, 0, 0, 0)),
    ("source_gamma", (0, 1, 0, 1, 0), 11.84352528130723, 0, (1, 0, 0, 0, 0)),
    ("source_gamma", (0, 1, 0, 1, 0), -0.3, 0, (0, 0, 1, 0, 0)),
    ("source_gamma", (0, 1, 0, 1, 0), -0.4523893421169302, -1, (1, 1, 0, 0, 0)),
    ("source_gamma", (0, 1, 0, 1, 0), 0.3, -1, (0, 1, 0, 0, 0)),
    ("source_gamma", (0, 1, 0, 0, 1), -0.3, 0, (1, 0, 0, 0, 0)),
    ("source_gamma", (0, 0, 0, 1, 0), -0.6, 0, (0, 0, 1, 0, 0)),
    ("source_gamma", (0, 0, 0, 1, 0), 0.6, -1, (0, 1, 0, 0, 0)),
    ("source_gamma", (0, 0, 0, 0, 1), -0.6, 0, (1, 0, 0, 0, 0)),
    ("source_omega", (1, 1, 2, 0, 0), 0.02261946710584651, -2, (1, 0, 0, 1, 0)),
    ("source_omega", (1, 1, 2, 0, 0), -0.02261946710584651, -2, (0, 1, 1, 0, 0)),
    ("source_omega", (1, 1, 2, 0, 0), 1.7859615367852695, -3, (2, 0, 0, 0, 0)),
    ("source_omega", (1, 1, 2, 0, 0), -0.06785840131753954, -3, (1, 0, 1, 0, 0)),
    ("source_omega", (1, 1, 2, 0, 0), 0.02261946710584651, -3, (0, 2, 0, 0, 0)),
    ("source_omega", (1, 1, 2, 0, 0), 0.06785840131753954, -4, (1, 1, 0, 0, 0)),
    ("source_omega", (1, 1, 1, 0, 0), 0.09047786842338604, -2, (1, 0, 0, 1, 0)),
    ("source_omega", (1, 1, 1, 0, 0), -0.09047786842338604, -2, (0, 1, 1, 0, 0)),
    ("source_omega", (1, 1, 1, 0, 0), 7.143846147141078, -3, (2, 0, 0, 0, 0)),
    ("source_omega", (1, 1, 1, 0, 0), -0.27143360527015814, -3, (1, 0, 1, 0, 0)),
    ("source_omega", (1, 1, 1, 0, 0), 0.09047786842338604, -3, (0, 2, 0, 0, 0)),
    ("source_omega", (1, 1, 1, 0, 0), 0.27143360527015814, -4, (1, 1, 0, 0, 0)),
    ("source_omega", (1, 1, 0, 2, 0), 1.1309733552923256, -3, (2, 0, 0, 0, 0)),
    ("source_omega", (1, 1, 0, 0, 0), 0.09047786842338604, -2, (1, 0, 0, 1, 0)),
    ("source_omega", (1, 1, 0, 0, 0), -0.09047786842338604, -2, (0, 1, 1, 0, 0)),
    ("source_omega", (1, 1, 0, 0, 0), 7.143846147141078, -3, (2, 0, 0, 0, 0)),
    ("source_omega", (1, 1, 0, 0, 0), -0.27143360527015814, -3, (1, 0, 1, 0, 0)),
    ("source_omega", (1, 1, 0, 0, 0), 0.09047786842338604, -3, (0, 2, 0, 0, 0)),
    ("source_omega", (1, 1, 0, 0, 0), 0.27143360527015814, -4, (1, 1, 0, 0, 0)),
    ("source_omega", (1, 0, 1, 0, 0), 93.51272739264233, -1, (1, 0, 0, 0, 0)),
    ("source_omega", (1, 0, 1, 0, 0), -4.737410112522892, -1, (0, 0, 1, 0, 0)),
    ("source_omega", (1, 0, 1, 0, 0), 0.06, -1, (0, 0, 0, 0, 1)),
    ("source_omega", (1, 0, 1, 0, 0), 4.737410112522892, -2, (0, 1, 0, 0, 0)),
    ("source_omega", (1, 0, 1, 0, 0), -0.12, -2, (0, 0, 0, 1, 0)),
    ("source_omega", (1, 0, 1, 0, 0), 0.18, -3, (0, 0, 1, 0, 0)),
    ("source_omega", (1, 0, 1, 0, 0), -0.18, -4, (0, 1, 0, 0, 0)),
    ("source_omega", (1, 0, 0, 2, 0), 2.261946710584651, -3, (2, 0, 0, 0, 0)),
    ("source_omega", (1, 0, 0, 0, 0), 189.39415984154613, -1, (1, 0, 0, 0, 0)),
    ("source_omega", (1, 0, 0, 0, 0), -9.534820225045785, -1, (0, 0, 1, 0, 0)),
    ("source_omega", (1, 0, 0, 0, 0), 0.12, -1, (0, 0, 0, 0, 1)),
    ("source_omega", (1, 0, 0, 0, 0), 9.534820225045785, -2, (0, 1, 0, 0, 0)),
    ("source_omega", (1, 0, 0, 0, 0), -0.24, -2, (0, 0, 0, 1, 0)),
    ("source_omega", (1, 0, 0, 0, 0), 0.36, -3, (0, 0, 1, 0, 0)),
    ("source_omega", (1, 0, 0, 0, 0), -0.36, -4, (0, 1, 0, 0, 0)),
)


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


def _powers(b: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Rows b**e[i] for the integer vector e, each distinct power taken once."""
    low = e.min()
    return (b ** np.arange(low, e.max() + 1)[:, None])[e - low]


@dataclass
class ManufacturedSolution:
    """Exact solution in separable form, with grid-bound evaluators.

    terms holds the radial terms of Gamma*, omega*, S_Gamma and S_omega in
    the layout of TERMS; the profile P is the degree-8 bump on `support`.
    """

    r_min: float
    R: float
    L_z: float
    support: tuple[float, float]
    terms: tuple
    # grid-free layout of terms: the distinct radial monomials as rows
    # (a, n0, ..., n4), and per field the (radial, m) weights of its m
    # monomials in the a_i together with their (m, 5) exponents
    _radial: np.ndarray = field(init=False, repr=False, compare=False)
    _fields: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        radial = sorted({(a, *n) for _, _, _, a, n in self.terms})
        index = {key: i for i, key in enumerate(radial)}
        self._radial = np.array(radial)
        self._fields = {}
        for name in FIELDS:
            rows = [row[1:] for row in self.terms if row[0] == name]
            exps = list(dict.fromkeys(m for m, *_ in rows))
            weights = np.zeros((len(radial), len(exps)))
            for m, c, a, n in rows:
                weights[index[(a, *n)], exps.index(m)] += c
            self._fields[name] = (weights, np.array(exps))

    def bind(self, grid: Grid):
        """Evaluators t -> array on the grid mesh, keyed gamma, omega,
        source_gamma and source_omega."""
        # each radial monomial r^a p0^n0 ... p4^n4 on grid.r, tabulated once
        base = [grid.r, *_bump_derivatives(grid.r, *self.support)]
        monomials = np.prod([_powers(b, e) for b, e in zip(base, self._radial.T)], axis=0)
        kz = 2.0 * np.pi / self.L_z
        sin_z, cos_z = np.sin(kz * grid.z), np.cos(kz * grid.z)

        def at(weights, exps):
            a = monomials.T @ weights
            zm = _powers(sin_z, exps[:, 0]) * _powers(cos_z, exps[:, 1])
            t_exp, cos_exp, sin_exp = exps[:, 2:].T
            return lambda t: (a * (t**t_exp * math.cos(t) ** cos_exp * math.sin(t) ** sin_exp)) @ zm

        return {name: at(*layout) for name, layout in self._fields.items()}


def build_mms() -> ManufacturedSolution:
    """The manufactured pair on [1, 2] x [0, 1): psi* = 0.12 P sin(k z) (1 + t/2)
    and Gamma* = 0.6 P (1 + cos(k z)/2) cos t, P the degree-8 bump on the
    middle 76 % of [1, 2]; TERMS holds the fields they give."""
    r_min, R, L_z, pad = 1.0, 2.0, 1.0, 0.12
    support = (r_min + pad * (R - r_min), R - pad * (R - r_min))
    return ManufacturedSolution(r_min, R, L_z, support, TERMS)


@dataclass
class MMSLevel:
    level: int
    n: int
    h: float
    dt: float
    err_gamma_l2: float
    err_omega_l2: float
    err_combined: float
    observed_order: float | None  # None on level 0


class NoOrderError(ValueError):
    """No order is observable at this t_end: a level's error, or the one
    before it, is exactly 0, or a level's step count overflows."""


def mms_convergence_study(levels: int, n_base: int, t_end: float) -> list[MMSLevel]:
    """Refinement ladder n_base, 2 n_base, ... with dt halved alongside h.

    The coarsest dt is 0.4 h; the scheme is the default one (centered
    advection, Crank-Nicolson diffusion).

    The error is the relative L2 distance of (Gamma, omega) from the
    exact fields at t_end; consecutive-level ratios give the observed
    space-time order.  A level whose run halts raises BlowupError with the
    run's halt reason; a level whose step count t_end / dt overflows, or an
    error of exactly 0 next to another level, raises NoOrderError.
    """
    mms = build_mms()
    dt_base = 0.4 * (mms.R - mms.r_min) / n_base
    out: list[MMSLevel] = []
    for lvl in range(levels):
        n = n_base * 2**lvl
        ratio = t_end / (dt_base / 2**lvl)
        if not math.isfinite(ratio):
            raise NoOrderError(f"{ratio} steps at level {lvl} (n = {n}): no order can be observed")
        steps = max(1, int(round(ratio)))
        dt = t_end / steps
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
        grid = cfg.grid
        bound = mms.bind(grid)
        state0 = state_from_dynamic(
            EllipticSolver(grid), 0.0, bound["gamma"](0.0), bound["omega"](0.0)
        )
        sources = (bound["source_gamma"], bound["source_omega"])
        result = run_simulation(cfg, state0, sources, records=False)
        st = result.final_state
        if result.halt:
            raise BlowupError(
                f"MMS level n = {n} halted at t = {st.t:.6g} of {t_end:.6g}: {result.halt}"
            )
        ref_g = bound["gamma"](t_end)
        ref_w = bound["omega"](t_end)
        scale_g = max(lp_norm(grid, ref_g, 2), 1e-300)
        scale_w = max(lp_norm(grid, ref_w, 2), 1e-300)
        err_g = lp_norm(grid, st.Gamma - ref_g, 2) / scale_g
        err_w = lp_norm(grid, st.omega - ref_w, 2) / scale_w
        err = math.hypot(err_g, err_w)
        order = None
        if out:
            prev = out[-1].err_combined
            if err == 0.0 or prev == 0.0:
                raise NoOrderError(
                    f"error {err!r} at level {lvl} (n = {n}) after {prev!r} at level "
                    f"{lvl - 1}: no order can be observed"
                )
            order = math.log2(prev / err)
        out.append(MMSLevel(lvl, n, grid.h_r, dt, err_g, err_w, err, order))
    return out
