import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from axicyl.config import ConfigError, SolverConfig
from axicyl.elliptic import EllipticSolver
from axicyl.fields import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    STATE_FIELDS,
    AxisymState,
    CheckpointError,
    bump_profile,
    checkpoint_load,
    checkpoint_save,
    make_initial_data,
    state_from_dynamic,
    velocity_from_stream,
)
from axicyl.grid import build_grid, ddr, ddz, lp_norm


def azimuthal_vorticity_of(grid, ur, uz):
    """omega = d_z u_r - d_r u_z, by centered differences."""
    return ddz(grid, ur) - ddr(grid, uz)


def discrete_divergence(grid, ur, uz):
    """d_r u_r + u_r/r + d_z u_z, by centered differences."""
    return ddr(grid, ur) + ur / grid.rcol + ddz(grid, uz)


@pytest.fixture(scope="module")
def grid():
    return build_grid(1, 2, 1.0, 33, 32)


def make_state(grid, **fields):
    """A state of zero fields, with the given ones replaced."""
    arrays = {name: np.zeros(grid.shape) for name in STATE_FIELDS}
    arrays.update(fields)
    return AxisymState(0.0, EllipticSolver(grid), **arrays)


def test_state_validation(grid):
    assert make_state(grid).grid is grid
    for name in STATE_FIELDS:
        with pytest.raises(ValueError, match="does not match grid"):
            make_state(grid, **{name: np.zeros((3, 3))})
        for bad in (np.nan, np.inf):
            vals = np.zeros(grid.shape)
            vals[2, 2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                make_state(grid, **{name: vals})


def test_state_from_dynamic_rejects_non_finite_data(grid):
    solver = EllipticSolver(grid)
    bad = np.zeros(grid.shape)
    bad[3, 4] = np.nan
    for gamma, omega in ((bad, np.zeros(grid.shape)), (np.zeros(grid.shape), bad)):
        with pytest.raises(ValueError, match="non-finite"):
            state_from_dynamic(solver, 0.0, gamma, omega)


def test_velocity_from_zero_stream(grid):
    ur, uz = velocity_from_stream(grid, np.zeros(grid.shape))
    assert np.all(ur == 0.0)
    assert np.all(uz == 0.0)


def test_velocity_from_quadratic_stream(grid):
    # psi = r^2/2 gives u_z = (1/r) d_r psi = 1 exactly (stencils exact on quadratics)
    psi = np.broadcast_to(grid.rcol**2 / 2, grid.shape).copy()
    ur, uz = velocity_from_stream(grid, psi)
    assert np.allclose(uz, 1.0, atol=1e-12)
    assert np.allclose(ur, 0.0, atol=1e-12)


def test_velocity_from_z_mode_stream():
    # u_r = -(2 pi / L_z) cos(2 pi z / L_z) / r + O(h_z^2), u_z = 0
    errs = []
    for n_z in (32, 64):
        g = build_grid(1, 2, 1.0, 9, n_z)
        psi_vals = np.broadcast_to(np.sin(2 * np.pi * g.z / g.L_z), g.shape).copy()
        ur, uz = velocity_from_stream(g, psi_vals)
        exact = -(2 * np.pi / g.L_z) * np.cos(2 * np.pi * g.z / g.L_z) / g.rcol
        errs.append(np.max(np.abs(ur[1:-1] - exact[1:-1])))
        assert np.allclose(uz, 0.0, atol=1e-12)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)


def test_ur_vanishes_on_walls_exactly():
    g = build_grid(1, 3, 2.0, 17, 16)
    rng = np.random.default_rng(7)
    interior = rng.normal(size=g.shape)
    interior[0, :] = 0.0
    interior[-1, :] = 0.0
    ur, _ = velocity_from_stream(g, interior)
    assert np.all(ur[0, :] == 0.0)
    assert np.all(ur[-1, :] == 0.0)


def test_discrete_divergence_second_order():
    devs = []
    for n in (33, 65):
        g = build_grid(1, 3, 2.0, n, n - 1)
        psi = bump_profile(g.r, 1.3, 2.7)[:, None] * np.sin(2 * np.pi * g.z / g.L_z)
        ur, uz = velocity_from_stream(g, psi)
        devs.append(np.max(np.abs(discrete_divergence(g, ur, uz))))
    assert devs[0] / devs[1] == pytest.approx(4.0, rel=0.3)


def swirl_velocity(solver, gamma):
    """u_theta of the state with swirl momentum gamma and no vorticity."""
    return state_from_dynamic(solver, 0.0, gamma, np.zeros(solver.grid.shape)).uth


def test_swirl_velocity(grid):
    solver = EllipticSolver(grid)
    assert np.all(swirl_velocity(solver, np.zeros(grid.shape)) == 0)
    uth = swirl_velocity(solver, np.broadcast_to(grid.rcol, grid.shape).copy())
    assert np.allclose(uth, 1.0)
    uth = swirl_velocity(solver, np.ones(grid.shape))
    assert np.allclose(uth, 1.0 / grid.rcol * np.ones(grid.shape))


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
    uth = swirl_velocity(EllipticSolver(g), vals)
    sup_gamma = np.max(np.abs(vals))
    assert np.max(np.abs(uth)) <= sup_gamma / g.r_min + 1e-12
    # r_min >= 1 here, so the swirl velocity is dominated by Gamma itself
    assert np.max(np.abs(uth)) <= sup_gamma + 1e-12


def test_vorticity_of_zero_and_quadratic(grid):
    zeros = np.zeros(grid.shape)
    assert np.all(azimuthal_vorticity_of(grid, zeros, zeros) == 0.0)
    # u_z = -r^2, u_r = 0: omega = -d_r u_z = 2r, exact for quadratics
    uz = np.broadcast_to(-grid.rcol**2, grid.shape).copy()
    om = azimuthal_vorticity_of(grid, zeros, uz)
    assert np.allclose(om, 2 * grid.rcol * np.ones(grid.shape), atol=1e-11)


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
        ur, uz = velocity_from_stream(g, psi_f(RR, ZZ))
        om = azimuthal_vorticity_of(g, ur, uz)
        # composed one-sided stencils are first order in the two rows
        # beside each wall; the clean interior is second order
        errs.append(np.max(np.abs(om[2:-2] - om_f(RR, ZZ)[2:-2])))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.35)


def test_make_initial_data_zero_amplitude():
    g = build_grid(1, 3, 2.0, 17, 16)
    st0 = make_initial_data(EllipticSolver(g), SolverConfig(amplitude=0.0, omega_amplitude=0.0))
    assert st0.kinetic_energy() == 0.0
    assert np.all(st0.Gamma == 0.0)


def test_make_initial_data_no_swirl():
    g = build_grid(1, 3, 2.0, 33, 32)
    st0 = make_initial_data(EllipticSolver(g), SolverConfig(init_kind="no_swirl_bump"))
    assert np.all(st0.Gamma == 0.0)
    assert lp_norm(g, st0.Gamma, np.inf) == 0.0
    assert lp_norm(g, st0.omega, np.inf) > 0.0


def test_initial_data_invariants():
    g = build_grid(1, 3, 2.0, 33, 32)
    solver = EllipticSolver(g)
    for kind in ("no_swirl_bump", "swirl_bump", "random_modes"):
        s = make_initial_data(solver, SolverConfig(init_kind=kind, seed=3))
        assert s.solver is solver
        assert np.all(s.omega[0, :] == 0.0)
        assert np.all(s.ur[0, :] == 0.0)
        assert np.all(s.ur[-1, :] == 0.0)
        assert np.isfinite(s.kinetic_energy())
        assert np.isfinite(lp_norm(g, s.omega / g.rcol, 2))


def test_make_initial_data_rejects_bad_support():
    solver = EllipticSolver(build_grid(1, 3, 2.0, 17, 16))
    for support, message in [
        ({"r_lo": 0.5, "r_hi": 2.0}, "init.r_lo and init.r_hi: [0.5, 2.0] must lie strictly"),
        ({"r_lo": 1.5, "r_hi": 3.5}, "init.r_lo and init.r_hi: [1.5, 3.5] must lie strictly"),
        ({"z_lo": 1.0, "z_hi": 2.5}, "init.z_lo and init.z_hi: [1.0, 2.5] must lie inside"),
        ({"r_lo": 1.5}, "init.r_lo and init.r_hi must be given together"),
        ({"z_hi": 1.0}, "init.z_lo and init.z_hi must be given together"),
    ]:
        with pytest.raises(ConfigError) as err:
            make_initial_data(solver, SolverConfig(**support))
        assert str(err.value).startswith(message)
    with pytest.raises(ConfigError):
        SolverConfig(init_kind="nonsense")


def test_make_initial_data_rejects_modes_past_nyquist():
    # n_z = 16: mode 8 is the highest the grid holds; a higher one aliases
    solver = EllipticSolver(build_grid(1, 3, 2.0, 17, 16))
    make_initial_data(solver, SolverConfig(init_kind="swirl_bump", z_mode=-8))
    make_initial_data(solver, SolverConfig(init_kind="random_modes", n_modes=8))
    for kind, kw in [
        ("swirl_bump", {"z_mode": 9}),
        ("no_swirl_bump", {"z_mode": -9}),
        ("random_modes", {"n_modes": 9}),
    ]:
        with pytest.raises(ConfigError) as err:
            make_initial_data(solver, SolverConfig(init_kind=kind, **kw))
        key = next(iter(kw))
        assert str(err.value) == f"init.{key}: must not exceed the Nyquist index n_z // 2 = 8"
    # each kind reads only its own mode argument
    make_initial_data(solver, SolverConfig(init_kind="random_modes", z_mode=10**400))
    make_initial_data(solver, SolverConfig(init_kind="swirl_bump", n_modes=10**9))


def test_random_modes_deterministic():
    solver = EllipticSolver(build_grid(1, 3, 2.0, 33, 32))
    a = make_initial_data(solver, SolverConfig(init_kind="random_modes", seed=1))
    b = make_initial_data(solver, SolverConfig(init_kind="random_modes", seed=1))
    c = make_initial_data(solver, SolverConfig(init_kind="random_modes", seed=2))
    assert np.array_equal(a.Gamma, b.Gamma)
    assert np.array_equal(a.omega, b.omega)
    assert not np.array_equal(a.Gamma, c.Gamma)


def test_random_modes_regression_anchor():
    # frozen first-run norms for seed=1 on the reference grid
    g = build_grid(1, 3, 2.0, 33, 32)
    s = make_initial_data(EllipticSolver(g), SolverConfig(init_kind="random_modes", seed=1))
    anchors = {
        "sup_gamma": lp_norm(g, s.Gamma, np.inf),
        "l2_gamma": lp_norm(g, s.Gamma, 2),
        "l2_omega": lp_norm(g, s.omega, 2),
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
    s = make_initial_data(solver, SolverConfig(init_kind="random_modes", amplitude=1.3, seed=9))
    s.t = 0.625
    path = tmp_path / "state.axns"
    checkpoint_save(s, path)
    loaded = checkpoint_load(path)
    assert loaded.t == s.t
    for key in ("r_min", "R", "L_z", "n_r", "n_z"):
        assert getattr(loaded.grid, key) == getattr(g, key), key
    assert np.array_equal(loaded.Gamma, s.Gamma)
    assert np.array_equal(loaded.omega, s.omega)
    # derived fields rebuilt identically by the deterministic solve
    for name in ("ur", "uth", "uz"):
        assert np.array_equal(getattr(loaded, name), getattr(s, name))


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.axns"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(CheckpointError):
        checkpoint_load(path)


def _save_state(path, n_r=17, n_z=16):
    solver = EllipticSolver(build_grid(1, 3, 2.0, n_r, n_z))
    s = make_initial_data(solver, SolverConfig(init_kind="no_swirl_bump"))
    checkpoint_save(s, path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "state.axns"
    _save_state(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(CheckpointError):
        checkpoint_load(path)


def _header(n_r, n_z, r_min, R, L_z, t, magic=CHECKPOINT_MAGIC, version=CHECKPOINT_VERSION):
    return struct.pack("<4sIIIdddd", magic, version, n_r, n_z, r_min, R, L_z, t)


def test_checkpoint_malformed_header_or_payload(tmp_path):
    path = tmp_path / "bad.axns"
    payload = np.zeros(2 * 9 * 8).tobytes()
    nan_payload = np.full(2 * 9 * 8, np.nan).tobytes()
    cases = [
        _header(0, 0, 1.0, 3.0, 2.0, 0.0),  # header only, empty grid
        _header(9, 8, math.nan, 3.0, 2.0, 0.0) + payload,
        _header(9, 8, 1.0, 0.5, 2.0, 0.0) + payload,
        _header(9, 8, 1.0, 3.0, 1e300, 0.0) + payload,  # h_z**2 overflows in the solver
        _header(9, 8, 1.0, 3.0, 2.0, math.inf) + payload,
        _header(9, 8, 1.0, 3.0, 2.0, 0.0) + nan_payload,
    ]
    for raw in cases:
        path.write_bytes(raw)
        with pytest.raises(CheckpointError):
            checkpoint_load(path)


def test_checkpoint_with_a_vanishing_spacing_is_rejected_quietly(tmp_path):
    # L_z = 1e-320 on 4 z nodes: h_z^2 underflows to 0, and the grid check
    # rejects the header before a solver or Grid.factors divides by it
    path = tmp_path / "tiny.axns"
    path.write_bytes(_header(5, 4, 1.0, 3.0, 1e-320, 0.0) + np.zeros(2 * 5 * 4).tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CheckpointError, match="L_z too small"):
            checkpoint_load(path)


@pytest.mark.parametrize("r_min", [1e-200, 5e-324])
def test_checkpoint_with_a_tiny_r_min_is_rejected_quietly(tmp_path, r_min):
    # r_min^2 underflows to 0: the grid check rejects the header before
    # Grid.factors divides by it
    path = tmp_path / "tiny.axns"
    path.write_bytes(_header(5, 4, r_min, 3.0, 2.0, 0.0) + np.zeros(2 * 5 * 4).tobytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(CheckpointError, match="r_min too small"):
            checkpoint_load(path)


def _loads_finite_or_rejects(path):
    """A file either loads as a finite state or raises CheckpointError."""
    try:
        state = checkpoint_load(path)
    except CheckpointError:
        return
    assert math.isfinite(state.t)
    for name in ("Gamma", "omega", "ur", "uth", "uz"):
        assert np.all(np.isfinite(getattr(state, name)))


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "valid.axns"
    _save_state(path, n_r=9, n_z=8)
    return path.read_bytes()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_checkpoint_truncation_or_byte_flip(valid_checkpoint, tmp_path_factory, data):
    raw = bytearray(valid_checkpoint)
    if data.draw(st.booleans()):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    else:
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] ^= data.draw(st.integers(1, 255))
    path = tmp_path_factory.mktemp("flip") / "state.axns"
    path.write_bytes(bytes(raw))
    _loads_finite_or_rejects(path)


@given(
    magic=st.sampled_from([CHECKPOINT_MAGIC, b"AXNZ"]),
    version=st.sampled_from([CHECKPOINT_VERSION, 0, 2**32 - 1]),
    n_r=st.integers(0, 12),
    n_z=st.integers(0, 12),
    floats=st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4),
    payload=st.sampled_from([0.0, 1.0, -1e300, math.nan]),
    extra=st.integers(-8, 8),
)
@settings(max_examples=200, deadline=None)
def test_checkpoint_random_header(tmp_path_factory, magic, version, n_r, n_z, floats, payload, extra):
    body = np.full(max(2 * n_r * n_z + extra, 0), payload).tobytes()
    path = tmp_path_factory.mktemp("hdr") / "state.axns"
    path.write_bytes(_header(n_r, n_z, *floats, magic=magic, version=version) + body)
    _loads_finite_or_rejects(path)
