import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axicyl.elliptic import EllipticSolver
from axicyl.fields import (
    CheckpointError,
    ScalarField,
    azimuthal_vorticity_of,
    bump_profile,
    checkpoint_load,
    checkpoint_save,
    discrete_divergence,
    make_initial_data,
    swirl_velocity,
    velocity_from_stream,
)
from axicyl.grid import build_grid, lp_norm


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 2, 1.0, 33, 32)


def test_scalar_field_validation(grid):
    with pytest.raises(ValueError):
        ScalarField(grid, np.zeros((3, 3)))
    vals = np.zeros(grid.shape)
    vals[2, 2] = np.nan
    with pytest.raises(ValueError):
        ScalarField(grid, vals)


def test_velocity_from_zero_stream(grid):
    psi = ScalarField(grid, np.zeros(grid.shape))
    ur, uz = velocity_from_stream(psi)
    assert np.all(ur.values == 0.0)
    assert np.all(uz.values == 0.0)


def test_velocity_from_quadratic_stream(grid):
    # psi = r^2/2 gives u_z = (1/r) d_r psi = 1 exactly (stencils exact on quadratics)
    psi = ScalarField(grid, np.broadcast_to(grid.rcol**2 / 2, grid.shape).copy())
    ur, uz = velocity_from_stream(psi)
    assert np.allclose(uz.values, 1.0, atol=1e-12)
    assert np.allclose(ur.values, 0.0, atol=1e-12)


def test_velocity_from_z_mode_stream():
    # u_r = -(2 pi / L_z) cos(2 pi z / L_z) / r + O(h_z^2), u_z = 0
    errs = []
    for n_z in (32, 64):
        g = build_grid(1, 2, 1.0, 9, n_z)
        psi_vals = np.broadcast_to(np.sin(2 * np.pi * g.z / g.L_z), g.shape).copy()
        ur, uz = velocity_from_stream(ScalarField(g, psi_vals))
        exact = -(2 * np.pi / g.L_z) * np.cos(2 * np.pi * g.z / g.L_z) / g.rcol
        errs.append(np.max(np.abs(ur.values[1:-1] - exact[1:-1])))
        assert np.allclose(uz.values, 0.0, atol=1e-12)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_ur_vanishes_on_walls_exactly():
    g = build_grid(1, 3, 2.0, 17, 16)
    rng = np.random.default_rng(7)
    interior = rng.normal(size=g.shape)
    interior[0, :] = 0.0
    interior[-1, :] = 0.0
    ur, _ = velocity_from_stream(ScalarField(g, interior))
    assert np.all(ur.values[0, :] == 0.0)
    assert np.all(ur.values[-1, :] == 0.0)


def test_discrete_divergence_second_order():
    devs = []
    for n in (33, 65):
        g = build_grid(1, 3, 2.0, n, n - 1)
        psi = bump_profile(g.r, 1.3, 2.7)[:, None] * np.sin(2 * np.pi * g.z / g.L_z)
        ur, uz = velocity_from_stream(ScalarField(g, psi))
        devs.append(np.max(np.abs(discrete_divergence(ur, uz))))
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.3)


def test_swirl_velocity(grid):
    assert np.all(swirl_velocity(ScalarField(grid, np.zeros(grid.shape))).values == 0)
    uth = swirl_velocity(ScalarField(grid, np.broadcast_to(grid.rcol, grid.shape).copy()))
    assert np.allclose(uth.values, 1.0)
    uth = swirl_velocity(ScalarField(grid, np.ones(grid.shape)))
    assert np.allclose(uth.values, 1.0 / grid.rcol * np.ones(grid.shape))


@given(
    vals=arrays(
        np.float64,
        (9, 8),
        elements=st.floats(-10, 10, allow_nan=False),
    )
)
@settings(max_examples=30, deadline=None)
def test_swirl_sup_bound(vals):
    g = build_grid(1.5, 3, 1.0, 9, 8)
    uth = swirl_velocity(ScalarField(g, vals))
    sup_gamma = np.max(np.abs(vals))
    assert np.max(np.abs(uth.values)) <= sup_gamma / g.r_min + 1e-12
    # r_min >= 1 here, so the swirl velocity is dominated by Gamma itself
    assert np.max(np.abs(uth.values)) <= sup_gamma + 1e-12


def test_vorticity_of_zero_and_quadratic(grid):
    zeros = ScalarField(grid, np.zeros(grid.shape))
    assert np.all(azimuthal_vorticity_of(zeros, zeros).values == 0.0)
    # u_z = -r^2, u_r = 0: omega = -d_r u_z = 2r, exact for quadratics
    uz = ScalarField(grid, np.broadcast_to(-grid.rcol**2, grid.shape).copy())
    om = azimuthal_vorticity_of(zeros, uz)
    assert np.allclose(om.values, 2 * grid.rcol * np.ones(grid.shape), atol=1e-11)


def test_vorticity_matches_symbolic_oracle():
    # omega from reconstructed velocities matches the analytic curl of the
    # manufactured stream function to O(h^2)
    import sympy as sp

    r, z = sp.symbols("r z", positive=True)
    R_out, Lz = 2.0, 1.0
    psi_sym = (r - 1) ** 2 * (R_out - r) ** 2 * sp.sin(2 * sp.pi * z / Lz)
    omega_sym = -(sp.diff(sp.diff(psi_sym, r) / r, r) + sp.diff(psi_sym, z, 2) / r)
    psi_f = sp.lambdify((r, z), psi_sym, "numpy")
    om_f = sp.lambdify((r, z), omega_sym, "numpy")
    errs = []
    for n in (33, 65):
        g = build_grid(1, R_out, Lz, n, n - 1)
        RR, ZZ = np.meshgrid(g.r, g.z, indexing="ij")
        ur, uz = velocity_from_stream(ScalarField(g, psi_f(RR, ZZ)))
        om = azimuthal_vorticity_of(ur, uz)
        # composed one-sided stencils are first order in the two rows
        # beside each wall; the clean interior is second order
        errs.append(np.max(np.abs(om.values[2:-2] - om_f(RR, ZZ)[2:-2])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)


def test_make_initial_data_zero_amplitude():
    g = build_grid(1, 3, 2.0, 17, 16)
    st0 = make_initial_data(g, "swirl_bump", amplitude=0.0, omega_amplitude=0.0)
    assert st0.kinetic_energy() == 0.0
    assert np.all(st0.Gamma.values == 0.0)


def test_make_initial_data_no_swirl():
    g = build_grid(1, 3, 2.0, 33, 32)
    st0 = make_initial_data(g, "no_swirl_bump", amplitude=1.0)
    assert np.all(st0.Gamma.values == 0.0)
    assert st0.Gamma.norm(np.inf) == 0.0
    assert st0.omega.norm(np.inf) > 0.0


def test_initial_data_invariants():
    g = build_grid(1, 3, 2.0, 33, 32)
    for kind in ("no_swirl_bump", "swirl_bump", "random_modes"):
        s = make_initial_data(g, kind, amplitude=1.0, seed=3)
        assert np.all(s.omega.values[0, :] == 0.0)
        assert np.all(s.ur.values[0, :] == 0.0)
        assert np.all(s.ur.values[-1, :] == 0.0)
        assert np.isfinite(s.kinetic_energy())
        assert np.isfinite(lp_norm(g, s.omega.values / g.rcol, 2))


def test_make_initial_data_rejects_bad_support():
    g = build_grid(1, 3, 2.0, 17, 16)
    with pytest.raises(ValueError):
        make_initial_data(g, "swirl_bump", r_support=(0.5, 2.0))
    with pytest.raises(ValueError):
        make_initial_data(g, "swirl_bump", r_support=(1.5, 3.5))
    with pytest.raises(ValueError):
        make_initial_data(g, "nonsense")


def test_random_modes_deterministic():
    g = build_grid(1, 3, 2.0, 33, 32)
    a = make_initial_data(g, "random_modes", amplitude=1.0, seed=1)
    b = make_initial_data(g, "random_modes", amplitude=1.0, seed=1)
    c = make_initial_data(g, "random_modes", amplitude=1.0, seed=2)
    assert np.array_equal(a.Gamma.values, b.Gamma.values)
    assert np.array_equal(a.omega.values, b.omega.values)
    assert not np.array_equal(a.Gamma.values, c.Gamma.values)


def test_random_modes_regression_anchor():
    # frozen first-run norms for seed=1 on the reference grid
    g = build_grid(1, 3, 2.0, 33, 32)
    s = make_initial_data(g, "random_modes", amplitude=1.0, seed=1)
    anchors = {
        "sup_gamma": s.Gamma.norm(np.inf),
        "l2_gamma": s.Gamma.norm(2),
        "l2_omega": s.omega.norm(2),
        "e_kin": s.kinetic_energy(),
    }
    expected = {
        "sup_gamma": 0.1368297220837582,
        "l2_gamma": 0.22040801961017706,
        "l2_omega": 1.0019945258165874,
        "e_kin": 0.07374161145182138,
    }
    for key, val in expected.items():
        assert anchors[key] == pytest.approx(val, rel=1e-12), (key, anchors[key])


def test_bump_profile_compact_support():
    x = np.linspace(0, 4, 401)
    b = bump_profile(x, 1.0, 3.0)
    assert np.all(b[x <= 1.0] == 0.0)
    assert np.all(b[x >= 3.0] == 0.0)
    assert b.max() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bump_profile(x, 2.0, 1.0)


def test_checkpoint_roundtrip(tmp_path):
    g = build_grid(1, 3, 2.0, 17, 16)
    solver = EllipticSolver(g)
    s = make_initial_data(g, "random_modes", amplitude=1.3, seed=9, solver=solver)
    s.t = 0.625
    path = tmp_path / "state.axns"
    checkpoint_save(s, path)
    loaded = checkpoint_load(path, grid=g, solver=solver)
    assert loaded.t == s.t
    assert np.array_equal(loaded.Gamma.values, s.Gamma.values)
    assert np.array_equal(loaded.omega.values, s.omega.values)
    # derived fields rebuilt identically by the deterministic solve
    assert np.array_equal(loaded.psi.values, s.psi.values)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.axns"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(CheckpointError):
        checkpoint_load(path)


def test_checkpoint_grid_mismatch(tmp_path):
    g = build_grid(1, 3, 2.0, 17, 16)
    s = make_initial_data(g, "no_swirl_bump")
    path = tmp_path / "state.axns"
    checkpoint_save(s, path)
    other = build_grid(1, 3, 2.0, 33, 16)
    with pytest.raises(CheckpointError):
        checkpoint_load(path, grid=other)


def test_checkpoint_truncated(tmp_path):
    g = build_grid(1, 3, 2.0, 17, 16)
    s = make_initial_data(g, "no_swirl_bump")
    path = tmp_path / "state.axns"
    checkpoint_save(s, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(CheckpointError):
        checkpoint_load(path)
