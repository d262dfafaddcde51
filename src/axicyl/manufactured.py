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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .grid import Grid


@dataclass
class ManufacturedSolution:
    """Symbolic exact solution with grid-bound numpy evaluators."""

    r_min: float
    R: float
    L_z: float
    gamma: object  # callable (r, z, t) -> array
    omega: object
    source_gamma: object
    source_omega: object

    def bind(self, grid: Grid):
        """Evaluators on the grid mesh: field_at(t) and source closures."""
        RR, ZZ = np.meshgrid(grid.r, grid.z, indexing="ij")

        def at(fn):
            return lambda t: np.asarray(fn(RR, ZZ, t), dtype=float)

        return {
            "gamma": at(self.gamma),
            "omega": at(self.omega),
            "source_gamma": at(self.source_gamma),
            "source_omega": at(self.source_omega),
        }


def _poly_bump(r, lo, hi, power=8):
    """((r-lo)(hi-r))^power / max, compactly supported C^(power-1) bump."""
    peak = ((hi - lo) / 2) ** (2 * power)
    return sp.Piecewise(
        (((r - lo) * (hi - r)) ** power / peak, sp.And(r > lo, r < hi)),
        (0, True),
    )


def build_mms(
    r_min: float = 1.0,
    R: float = 2.0,
    L_z: float = 1.0,
    amp_psi: float = 0.12,
    amp_gamma: float = 0.6,
    pad: float = 0.12,
) -> ManufacturedSolution:
    """Default manufactured pair on [r_min, R] x [0, L_z)."""
    r, z, t = sp.symbols("r z t", real=True)
    lo = r_min + pad * (R - r_min)
    hi = R - pad * (R - r_min)
    kz = 2 * sp.pi / L_z

    psi = amp_psi * _poly_bump(r, lo, hi) * sp.sin(kz * z) * (1 + t / 2)
    gamma = amp_gamma * _poly_bump(r, lo, hi) * (1 + sp.Rational(1, 2) * sp.cos(kz * z)) * sp.cos(t)

    omega = -(sp.diff(sp.diff(psi, r) / r, r) + sp.diff(psi, z, 2) / r)
    ur = -sp.diff(psi, z) / r
    uz = sp.diff(psi, r) / r

    def laplace(f):
        return sp.diff(f, r, 2) + sp.diff(f, r) / r + sp.diff(f, z, 2)

    l1_gamma = laplace(gamma) - 2 / r * sp.diff(gamma, r)
    l0_omega = laplace(omega) - omega / r**2
    adv = lambda f: ur * sp.diff(f, r) + uz * sp.diff(f, z)

    s_gamma = sp.diff(gamma, t) + adv(gamma) - l1_gamma
    s_omega = (
        sp.diff(omega, t)
        + adv(omega)
        - ur / r * omega
        - l0_omega
        - sp.diff(gamma**2, z) / r**3
    )

    syms = (r, z, t)
    lam = lambda e: sp.lambdify(syms, e, "numpy", cse=True)
    return ManufacturedSolution(
        r_min,
        R,
        L_z,
        gamma=lam(gamma),
        omega=lam(omega),
        source_gamma=lam(s_gamma),
        source_omega=lam(s_omega),
    )


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
    levels: int = 3,
    n_base: int = 64,
    t_end: float = 0.25,
    dt_base: float | None = None,
    mms: ManufacturedSolution | None = None,
    advection: str = "centered2",
    diffusion: str = "crank_nicolson",
) -> list[MMSLevel]:
    """Refinement ladder n_base, 2 n_base, ... with dt halved alongside h.

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
    if dt_base is None:
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
            advection=advection,
            diffusion=diffusion,
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
