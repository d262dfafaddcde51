"""The symbolic derivation behind axicyl.manufactured.TERMS.

sympy derives Gamma*, omega*, S_Gamma and S_omega (the system is in the
docstring of axicyl.manufactured) with the radial profile left undefined:
P(r) and its r-derivatives are plain symbols p0, p1, ..., and d/dr acts
through them by the chain rule.  Each field is then a polynomial in
sin(k z), cos(k z), t, cos t and sin t whose coefficients are sums of
c r^a p0^n0 ... p4^n4; derive_rows lists those terms in the layout of
TERMS, and mismatches compares a table with them term by term
(test_manufactured.py checks TERMS so).  Run as a script,

    PYTHONPATH=src python tests/mms_derivation.py

prints the derived rows as the literal to commit.
"""

from __future__ import annotations

import functools
import math

import sympy as sp

from axicyl.manufactured import FIELDS, N_DERIVS, build_mms

AMP_PSI, AMP_GAMMA = 0.12, 0.6
R_SHIFT = 8  # r^R_SHIFT clears every negative power of r before expansion

r, z, t = sp.symbols("r z t", real=True)
# the profile P(r) and its r-derivatives as plain symbols p0, p1, ...
p = sp.symbols(f"p0:{N_DERIVS + 1}")


def _kz():
    return 2 * sp.pi / build_mms().L_z


@functools.cache
def derive_fields() -> dict[str, sp.Expr]:
    """Gamma*, omega* and the two sources of psi* = 0.12 P sin(k z) (1 + t/2)
    and Gamma* = 0.6 P (1 + cos(k z)/2) cos t, k = 2 pi / L_z."""
    kz = _kz()

    def d_r(f, n=1):
        """n-th total r-derivative, by the chain rule through the p_k."""
        for _ in range(n):
            f = sp.diff(f, r) + sum(sp.diff(f, p[k]) * p[k + 1] for k in range(N_DERIVS))
        return f

    psi = AMP_PSI * p[0] * sp.sin(kz * z) * (1 + t / 2)
    gamma = AMP_GAMMA * p[0] * (1 + sp.Rational(1, 2) * sp.cos(kz * z)) * sp.cos(t)

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
    fields = dict(zip(FIELDS, (gamma, omega, s_gamma, s_omega)))
    for name, e in fields.items():
        assert p[N_DERIVS] not in e.free_symbols, f"{name} needs more profile derivatives"
    return fields


@functools.cache
def derive_rows() -> tuple[tuple, ...]:
    """(field, monomial, c, a, n) per radial term, the layout of TERMS."""
    kz = _kz()
    gens = (sp.sin(kz * z), sp.cos(kz * z), t, sp.cos(t), sp.sin(t))
    rows = []
    for name, e in derive_fields().items():
        poly = sp.Poly(e, *gens)
        for monomial, coeff in zip(poly.monoms(), poly.coeffs()):
            radial = sp.Poly(sp.expand(coeff * r**R_SHIFT), r, *p[:N_DERIVS])
            for (a, *n), c in zip(radial.monoms(), radial.coeffs()):
                rows.append((name, monomial, float(c), a - R_SHIFT, tuple(n)))
    return tuple(rows)


def mismatches(table) -> list[str]:
    """Where table departs from the derived rows: a term only one of them
    has, a term listed twice, or a coefficient off by more than 1e-15
    relative."""
    want = {(f, m, a, n): c for f, m, c, a, n in derive_rows()}
    got = {(f, m, a, n): c for f, m, c, a, n in table}
    out = [f"missing {key}" for key in want.keys() - got.keys()]
    out += [f"extra {key}" for key in got.keys() - want.keys()]
    out += [
        f"{key}: {got[key]!r} != {c!r}"
        for key, c in want.items()
        if key in got and not math.isclose(got[key], c, rel_tol=1e-15)
    ]
    if len(table) != len(got):
        out.append("a term appears twice")
    return sorted(out)


def main() -> None:
    for name, monomial, c, a, n in derive_rows():
        print(f'    ("{name}", {monomial}, {c!r}, {a}, {n}),')


if __name__ == "__main__":
    main()
