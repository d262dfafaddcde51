import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axicyl.elliptic import EllipticSolver
from axicyl.evolution import advect_upwind
from axicyl.grid import (
    GridError,
    build_grid,
    d2z,
    ddr,
    ddz,
    lp_norm,
    r_differences,
    radial_quadrature,
    weighted_integral,
    z_differences,
)


def test_build_grid_spacings():
    g = build_grid(1, 2, 1, 5, 4)
    assert g.h_r == pytest.approx(0.25)
    assert g.h_z == pytest.approx(0.25)
    g = build_grid(1, 5, 2 * math.pi, 129, 128)
    assert g.h_r == pytest.approx(4 / 128)
    g = build_grid(0.5, 5, 2 * math.pi, 129, 128)
    assert g.r[0] == pytest.approx(0.5)
    assert g.r[-1] == pytest.approx(5.0)
    assert g.z[-1] == pytest.approx(2 * math.pi - g.h_z)


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 2, 1, 8, 8),
        (-1, 2, 1, 8, 8),
        (1, 1, 1, 8, 8),
        (1, 0.5, 1, 8, 8),
        (1, 2, 0, 8, 8),
        (1, 2, 1, 3, 8),
        (1, 2, 1, 8, 3),
        (math.nan, 2, 1, 8, 8),
        (1, math.inf, 1, 8, 8),
    ],
)
def test_build_grid_rejects(args):
    with pytest.raises(GridError):
        build_grid(*args)


@pytest.mark.parametrize(
    "args, param",
    [
        ((1, 2, 1e-320, 8, 8), "L_z"),  # h_z^2 underflows to 0
        ((1, 2, 1e-160, 8, 8), "L_z"),  # h_z^2 is subnormal: 1/h_z^2 overflows
        ((1e-300, 2e-300, 1, 8, 8), "R"),  # (R - r_min)^2 underflows
    ],
)
def test_build_grid_rejects_a_spacing_with_no_finite_inverse_square(args, param):
    # every second difference divides by h^2: the grid is rejected, naming
    # the parameter, before anything divides
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GridError, match="too small") as err:
            build_grid(*args)
    assert err.value.param == param


@pytest.mark.parametrize("r_min", [1e-200, 5e-324, 1e-103])
def test_build_grid_rejects_an_r_min_whose_grid_factors_overflow(r_min):
    # Grid.factors divides by r^2 and r^3: r_min^2 underflows at 1e-200 and
    # 5e-324, and h_z r_min^3 is subnormal at 1e-103, so a factor is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(GridError, match="^r_min too small") as err:
            build_grid(r_min, 3.0, 2.0, 17, 16)
    assert err.value.param == "r_min"
    # 1e-100 is small but leaves every factor finite
    assert all(np.all(np.isfinite(f)) for f in build_grid(1e-100, 3.0, 2.0, 17, 16).factors)


def test_weighted_integral_constant():
    # integrand f*r is linear in r, so the trapezoid rule is exact: 3*pi
    g = build_grid(1, 2, 1, 9, 4)
    f = np.ones(g.shape)
    assert weighted_integral(g, f) == pytest.approx(3 * math.pi, rel=1e-14)


def test_weighted_integral_one_over_r():
    # f*r == 1 exactly: 2*pi*(R-1)*L_z at machine precision
    g = build_grid(1, 4, 2.5, 17, 8)
    f = 1.0 / g.rcol * np.ones(g.shape)
    assert weighted_integral(g, f) == pytest.approx(2 * math.pi * 3 * 2.5, rel=1e-14)


def test_weighted_integral_linear_r_second_order():
    # oracle: exact antiderivative of 2*pi*r^2 over [1,2] gives 14*pi/3
    exact = 2 * math.pi * (2**3 - 1**3) / 3
    errs = []
    for n in (17, 33):
        g = build_grid(1, 2, 1, n, 4)
        f = g.rcol * np.ones(g.shape)
        errs.append(abs(weighted_integral(g, f) - exact))
    # trapezoid error for 2*pi*r^2: (b-a)*h^2/12 * (2*pi*2) = 4*pi*h^2/12
    assert errs[0] == pytest.approx(4 * math.pi * (1 / 16) ** 2 / 12, rel=1e-6)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)


@given(
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
    k=st.integers(min_value=1, max_value=7),
    phi=st.floats(0, 6.28),
)
@settings(max_examples=40, deadline=None)
def test_weighted_integral_exactness_linear_times_mode(a, b, k, phi):
    # f*r linear in r and a single nonzero Fourier mode in z integrates to 0
    g = build_grid(1, 3, 2.0, 13, 16)
    f_times_r = (a + b * g.rcol) * np.cos(2 * math.pi * k * g.z / g.L_z + phi)
    f = f_times_r / g.rcol
    assert abs(weighted_integral(g, f)) < 1e-12 * (1 + abs(a) + abs(b))


def test_lp_norm_trivial():
    g = build_grid(1, 2, 1, 9, 8)
    zeros = np.zeros(g.shape)
    for p in (1, 2, 4, np.inf):
        assert lp_norm(g, zeros, p) == 0.0
    assert lp_norm(g, -3.0 * np.ones(g.shape), np.inf) == pytest.approx(3.0)


def test_lp_norm_one_over_r():
    # oracle: (integral of 2*pi/r over [1,2]x[0,1])^(1/2) = sqrt(2*pi*ln 2)
    g = build_grid(1, 2, 1, 129, 8)
    f = 1.0 / g.rcol * np.ones(g.shape)
    exact = math.sqrt(2 * math.pi * math.log(2))
    assert lp_norm(g, f, 2) == pytest.approx(exact, rel=2e-5)


def test_lp_norm_of_a_field_past_the_power_overflow_is_finite():
    # |f|^6 overflows once |f| passes about 1e51: the norm is sup|f| times
    # the norm of f / sup|f|, and nothing warns
    g = build_grid(1.0, 3.0, 2.0, 33, 32)
    f = np.sin(g.r)[:, None] * np.cos(2 * np.pi * g.z / g.L_z)[None, :]
    f *= 1e60 / np.max(np.abs(f))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norm = lp_norm(g, f, 6)
    assert math.isfinite(norm)
    assert norm == pytest.approx(1e60 * lp_norm(g, f / 1e60, 6), rel=1e-15)


@pytest.mark.parametrize("p", [1, 2, 4, 6, 7.5])
def test_lp_norm_below_the_overflow_is_the_plain_formula(p):
    g = build_grid(1.0, 3.0, 2.0, 33, 32)
    rng = np.random.default_rng(3)
    for scale in (1e-30, 1.0, 1e40):
        f = scale * rng.normal(size=g.shape)
        plain = float(weighted_integral(g, np.abs(f) ** p) ** (1.0 / p))
        assert lp_norm(g, f, p) == plain


def test_lp_norm_rejects_bad_p():
    g = build_grid(1, 2, 1, 9, 8)
    with pytest.raises(ValueError):
        lp_norm(g, np.ones(g.shape), 0.5)


def test_grad_linear_and_constant():
    g = build_grid(1, 2, 1.5, 17, 8)
    f = g.rcol * np.ones(g.shape)
    fr, fz = ddr(g, f), ddz(g, f)
    assert np.allclose(fr, 1.0, atol=1e-12)
    assert np.allclose(fz, 0.0, atol=1e-12)
    f = np.full(g.shape, 4.2)
    fr, fz = ddr(g, f), ddz(g, f)
    assert np.allclose(fr, 0.0, atol=1e-12)
    assert np.allclose(fz, 0.0, atol=1e-12)


def test_ddz_mode_second_order():
    errs = []
    for n in (16, 32):
        g = build_grid(1, 2, 2.0, 5, n)
        f = np.sin(2 * math.pi * g.z / g.L_z) * np.ones(g.shape)
        exact = (2 * math.pi / g.L_z) * np.cos(2 * math.pi * g.z / g.L_z) * np.ones(g.shape)
        errs.append(np.max(np.abs(ddz(g, f) - exact)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


@pytest.mark.parametrize("shape", [(4, 4), (17, 5), (33, 32), (129, 128)])
def test_z_stencils_equal_their_periodic_roll_forms(shape):
    # the flat passes keep each element's operations and their order, so
    # they match the np.roll forms bit for bit, on any memory layout
    g = build_grid(1.0, 3.7, 2.3, *shape)
    rng = np.random.default_rng(shape[0])
    for scale in (1e-5, 1.0, 1e5):
        f = scale * rng.normal(size=shape)
        up, down = np.roll(f, -1, axis=1), np.roll(f, 1, axis=1)
        d1 = (up - down) / (2.0 * g.h_z)
        d2 = (up - 2.0 * f + down) / g.h_z**2
        strided = np.repeat(f, 2, axis=1)[:, ::2]
        for view in (f, np.asfortranarray(f), strided):
            assert np.array_equal(ddz(g, view), d1)
            assert np.array_equal(z_differences(view), up - down)
            assert np.array_equal(d2z(g, view), d2)


@pytest.mark.parametrize("shape", [(4, 4), (17, 5), (129, 128), (385, 384)])
def test_upwind_advection_equals_its_roll_form(shape):
    # advect_upwind computes each one-sided difference once and shifts it
    # by slicing, keeping every element's operations and their order, so it
    # matches the form with two np.roll calls per direction bit for bit
    g = build_grid(1.0, 3.7, 2.3, *shape)
    rng = np.random.default_rng(shape[0])
    ur, uz = rng.normal(size=(2, *shape))
    for scale in (1e-5, 1.0, 1e5):
        f = scale * rng.normal(size=shape)
        back, fwd = np.zeros_like(f), np.zeros_like(f)
        back[1:] = (f[1:] - f[:-1]) / g.h_r
        fwd[:-1] = (f[1:] - f[:-1]) / g.h_r
        back_z = (f - np.roll(f, 1, axis=1)) / g.h_z
        fwd_z = (np.roll(f, -1, axis=1) - f) / g.h_z
        df_r = np.where(ur > 0, back, fwd)
        df_z = np.where(uz > 0, back_z, fwd_z)
        rolled = -(ur * df_r + uz * df_z)
        for view in (f, np.asfortranarray(f)):
            assert np.array_equal(advect_upwind(g, view, ur, uz), rolled)


def test_ddr_smooth_second_order():
    errs = []
    for n in (33, 65):
        g = build_grid(1, 3, 1.0, n, 4)
        f = np.exp(-((g.rcol - 2.0) ** 2)) * np.ones(g.shape)
        exact = -2 * (g.rcol - 2.0) * np.exp(-((g.rcol - 2.0) ** 2)) * np.ones(g.shape)
        errs.append(np.max(np.abs(ddr(g, f) - exact)))
    order = math.log2(errs[0] / errs[1])
    assert 1.9 < order < 2.1


def test_ddr_divides_the_raw_differences():
    # the wall rows are built in place, in the order of the expressions here
    for shape in ((4, 4), (17, 8)):
        g = build_grid(1.0, 3.7, 2.3, *shape)
        f = np.random.default_rng(5).normal(size=g.shape)
        raw = np.empty_like(f)
        raw[1:-1] = f[2:] - f[:-2]
        raw[0] = -3.0 * f[0] + 4.0 * f[1] - f[2]
        raw[-1] = 3.0 * f[-1] - 4.0 * f[-2] + f[-3]
        for view in (f, np.asfortranarray(f)):
            assert np.array_equal(r_differences(view), raw)
            assert np.array_equal(ddr(g, view), raw / (2.0 * g.h_r))


def test_grid_factors_hold_their_column_expressions():
    # each field-shaped factor is its column expression, so a product or
    # quotient with it is the column's bit for bit; built once, read-only
    g = build_grid(1.0, 3.7, 2.3, 33, 16)
    f = g.factors
    assert g.factors is f
    r = g.rcol
    columns = {
        "r": r,
        "ur_of_psi": -0.5 / (g.h_z * r),
        "uz_of_psi": 0.5 / (g.h_r * r),
        "swirl_feed": 0.5 / (g.h_z * r**3),
    }
    field = np.random.default_rng(7).normal(size=g.shape)
    for name, col in columns.items():
        full = getattr(f, name)
        assert full.shape == g.shape and not full.flags.writeable
        assert np.array_equal(full, np.broadcast_to(col, g.shape))
        assert np.array_equal(field * full, field * col)
        assert np.array_equal(field / full, field / col)
    quad = radial_quadrature(g)
    assert np.array_equal(f.quad_r2, quad / g.r**2)
    assert np.array_equal(f.quad_dr, quad / (2.0 * g.h_r) ** 2)
    assert np.array_equal(f.quad_dz, quad / (2.0 * g.h_z) ** 2)
    assert np.array_equal(f.quad_r2_dz, quad / g.r**2 / (2.0 * g.h_z) ** 2)


def apply_interior(g, f, op):
    """The heat operator's stencil on the interior rows [1:-1]."""
    return EllipticSolver(g).apply_heat_operator(f, op)[1:-1]


def test_apply_l0_kills_r():
    # L0 r = (1/r) - r/r^2 = 0 identically, and the stencil is exact for r
    g = build_grid(1, 2, 1, 17, 4)
    out = apply_interior(g, g.rcol * np.ones(g.shape), "L0")
    assert np.allclose(out, 0.0, atol=1e-12)


def test_apply_l1_kills_r_squared_and_constants():
    g = build_grid(1, 2, 1, 17, 4)
    out = apply_interior(g, g.rcol**2 * np.ones(g.shape), "L1")
    assert np.allclose(out, 0.0, atol=1e-11)
    out = apply_interior(g, np.full(g.shape, 2.5), "L1")
    assert np.allclose(out, 0.0, atol=1e-12)


def test_stencil_commutation_generator_level():
    # discrete r*L0(g) - L1(r*g) equals +(h^2/2) * D_rr g / r exactly
    g = build_grid(1, 3, 2.0, 33, 16)
    gamma = np.exp(-3 * (g.rcol - 2.0) ** 2) * np.cos(2 * math.pi * g.z / g.L_z)
    lhs = g.rcol[1:-1] * apply_interior(g, gamma, "L0")
    rhs = apply_interior(g, g.rcol * gamma, "L1")
    d2r = (gamma[2:] - 2 * gamma[1:-1] + gamma[:-2]) / g.h_r**2
    predicted = 0.5 * g.h_r**2 * d2r / g.rcol[1:-1]
    assert np.allclose(lhs - rhs, predicted, atol=1e-11)


def test_stencil_commutation_second_order():
    devs = []
    for n in (17, 33, 65):
        g = build_grid(1, 3, 2.0, n, 8)
        gamma = np.exp(-3 * (g.rcol - 2.0) ** 2) * np.cos(2 * math.pi * g.z / g.L_z)
        lhs = g.rcol[1:-1] * apply_interior(g, gamma, "L0")
        devs.append(np.max(np.abs(lhs - apply_interior(g, g.rcol * gamma, "L1"))))
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.25)
    assert devs[1] / devs[2] == pytest.approx(4.0, rel=0.25)
