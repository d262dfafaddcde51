"""Time integration of the coupled (Gamma, omega) system and its linear cousins.

Equations advanced (unit viscosity, b = v = u_r e_r + u_z e_z):

    d_t Gamma + v.grad Gamma = L1 Gamma                      (+ source)
    d_t omega + v.grad omega = (u_r/r) omega + L0 omega
                               + d_z(Gamma^2)/r^3            (+ source)

with Robin(2/r_min) for Gamma and Dirichlet for omega at the inner wall,
zeros at the truncation wall, and v recovered from the stream solve of
omega after every stage.

Default scheme: Strang splitting, Crank-Nicolson for the diffusion halves
and Heun (RK2) for advection/reaction/source, velocities re-derived at
each Heun stage (needed for second order in the coupling).  The monotone
option (upwind1 + explicit) makes every Heun stage of the Gamma update a
sub-convex combination, so sup|Gamma| is exactly non-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SolverConfig
from .diagnostics import (
    DiagnosticsRecord,
    boundary_leakage,
    dissipation_sample,
    h1_proxy,
    identity_5_3_check,
    state_inequality_ratios,
)
from .elliptic import EllipticSolver
from .fields import (
    AxisymState,
    ScalarField,
    checkpoint_save,
    make_initial_data,
    state_from_dynamic,
    velocity_from_stream,
)
from .grid import Grid, build_grid, ddr, ddz, lp_norm


class CFLError(RuntimeError):
    """Requested dt exceeds the stability bound of the chosen scheme."""


class BlowupError(RuntimeError):
    """Fields left the finite range; the run must halt."""


def advect_centered(grid: Grid, f: np.ndarray, ur: np.ndarray, uz: np.ndarray) -> np.ndarray:
    return -(ur * ddr(grid, f) + uz * ddz(grid, f))


def advect_upwind(grid: Grid, f: np.ndarray, ur: np.ndarray, uz: np.ndarray) -> np.ndarray:
    """First-order upwind -v.grad f; monotone under the CFL bound."""
    h = grid.h_r
    back = np.zeros_like(f)
    back[1:] = (f[1:] - f[:-1]) / h
    fwd = np.zeros_like(f)
    fwd[:-1] = (f[1:] - f[:-1]) / h
    df_r = np.where(ur > 0, back, fwd)
    back_z = (f - np.roll(f, 1, axis=1)) / grid.h_z
    fwd_z = (np.roll(f, -1, axis=1) - f) / grid.h_z
    df_z = np.where(uz > 0, back_z, fwd_z)
    return -(ur * df_r + uz * df_z)


def swirl_vorticity_source(grid: Grid, gamma: np.ndarray) -> np.ndarray:
    """d_z(Gamma^2) / r^3, the vortex-stretching feed from swirl."""
    return ddz(grid, gamma**2) / grid.rcol**3


def _advection(name: str):
    return advect_upwind if name == "upwind1" else advect_centered


def _coupled_rates(grid: Grid, advection: str, gamma, omega, ur, uz, gamma_feed):
    """Advection, reaction and swirl-feed tendencies of (Gamma, omega).

    The velocity (ur, uz) advects both fields and sets the reaction
    (u_r/r) omega; gamma_feed drives d_z(Gamma^2)/r^3.  The coupled run
    passes its own stage fields, Picard the previous iterate's history.
    """
    advect = _advection(advection)
    kg = advect(grid, gamma, ur, uz)
    kw = (
        advect(grid, omega, ur, uz)
        + (ur / grid.rcol) * omega
        + swirl_vorticity_source(grid, gamma_feed)
    )
    return kg, kw


def _strang_heun(solver: EllipticSolver, fields, ops, dt: float, tendency, diffusion: str):
    """One Strang-split step of d_t f_i = ops[i] f_i + tendency_i.

    Crank-Nicolson half-steps of the heat operators bracket one Heun (RK2)
    step of the tendencies; with diffusion = "explicit" the operators join
    the Heun tendencies instead.  tendency(stage_fields, stage) returns one
    fresh array per field, with stage 0 at the start of the step and stage 1
    at its end.  Every field's truncation row is pinned to zero, and so is
    the inner-wall row of a Dirichlet (L0p) field.  The input arrays are
    not modified.
    """
    implicit = diffusion == "crank_nicolson"

    def pinned(f, op):
        f[-1, :] = 0.0
        if op == "L0p":
            f[0, :] = 0.0
        return f

    def rates(fs, stage):
        ks = tendency(fs, stage)
        if not implicit:
            ks = [k + solver.apply_heat_operator(f, op) for k, f, op in zip(ks, fs, ops)]
        return [pinned(k, op) for k, op in zip(ks, ops)]

    def half_diffusion(fs):
        return [solver.heat_step(f, 0.5 * dt, op) for f, op in zip(fs, ops)]

    if implicit:
        fields = half_diffusion(fields)
    k1 = rates(fields, 0)
    k2 = rates([pinned(f + dt * k, op) for f, k, op in zip(fields, k1, ops)], 1)
    fields = [pinned(f + 0.5 * dt * (a + b), op) for f, a, b, op in zip(fields, k1, k2, ops)]
    if implicit:
        fields = half_diffusion(fields)
    return fields


@dataclass
class SimulationResult:
    records: list[DiagnosticsRecord]
    final_state: AxisymState
    status: str  # completed | halted_blowup
    max_leakage: float
    checkpoints: list[str] = field(default_factory=list)


class Stepper:
    """Owns one evolving state plus the accumulated budget integrals."""

    def __init__(
        self,
        cfg: SolverConfig,
        grid: Grid,
        solver: EllipticSolver,
        state: AxisymState,
        sources=None,
    ):
        self.cfg = cfg
        self.grid = grid
        self.solver = solver
        self.state = state
        self.sources = sources  # None or (S_gamma(t)->array, S_omega(t)->array)
        self.step_count = 0
        self.acc_diss_v = 0.0
        self.acc_diss_uth = 0.0
        self.acc_diss_sw = 0.0
        self.acc_flux = 0.0
        self.acc_grad_q = 0.0
        self.acc_om_diss = 0.0
        self._prev = dissipation_sample(state)
        self.e_kin0 = state.kinetic_energy()
        self.sup_gamma0 = state.Gamma.norm(np.inf)
        self.l2_u0 = math.sqrt(self.e_kin0)
        self.l2_om_over_r0 = lp_norm(grid, state.omega.values / grid.rcol, 2)
        self.l2_om0 = state.omega.norm(2)
        self.max_leakage = boundary_leakage(state)

    # -- stability bounds ---------------------------------------------------

    def _vmax(self) -> tuple[float, float]:
        return (
            float(np.max(np.abs(self.state.ur.values))),
            float(np.max(np.abs(self.state.uz.values))),
        )

    def advective_dt_bound(self) -> float:
        vr, vz = self._vmax()
        bound = math.inf
        if vr > 0:
            bound = min(bound, self.grid.h_r / vr)
        if vz > 0:
            bound = min(bound, self.grid.h_z / vz)
        return bound

    def dt_bound(self) -> float:
        if self.cfg.diffusion == "explicit":
            vr, vz = self._vmax()
            diff_rate = 1.0 / min(
                self.solver.explicit_stability_bound("L1"),
                self.solver.explicit_stability_bound("L0p"),
            )
            rate = diff_rate + vr / self.grid.h_r + vz / self.grid.h_z
            return 1.0 / rate
        return self.advective_dt_bound()

    # -- one step -------------------------------------------------------------

    def step(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        bound = self.dt_bound()
        if dt > self.cfg.cfl * bound * (1 + 1e-9):
            raise CFLError(
                f"dt = {dt:.3e} exceeds cfl * bound = {self.cfg.cfl * bound:.3e} "
                f"({self.cfg.advection}/{self.cfg.diffusion})"
            )
        t = self.state.t
        times = (t, t + dt)

        def tendency(fields, stage):
            gamma, omega = fields
            ur, uz = velocity_from_stream(self.solver.solve_stream(omega))
            kg, kw = _coupled_rates(
                self.grid, self.cfg.advection, gamma, omega, ur.values, uz.values, gamma
            )
            if self.sources is not None:
                sg, so = self.sources
                if sg is not None:
                    kg = kg + sg(times[stage])
                if so is not None:
                    kw = kw + so(times[stage])
            return kg, kw

        gamma, omega = _strang_heun(
            self.solver,
            (self.state.Gamma.values, self.state.omega.values),
            ("L1", "L0p"),
            dt,
            tendency,
            self.cfg.diffusion,
        )

        if not (np.all(np.isfinite(gamma)) and np.all(np.isfinite(omega))):
            raise BlowupError(f"non-finite fields at t = {t + dt:.6g}")
        new_state = state_from_dynamic(self.grid, t + dt, gamma, omega, solver=self.solver)
        sample = dissipation_sample(new_state)
        w = 0.5 * dt
        self.acc_diss_v += w * (self._prev.diss_v + sample.diss_v)
        self.acc_diss_uth += w * (self._prev.diss_uth + sample.diss_uth)
        self.acc_diss_sw += w * (self._prev.diss_sw + sample.diss_sw)
        self.acc_flux += w * (self._prev.flux + sample.flux)
        self.acc_grad_q += w * (self._prev.grad_om_over_r + sample.grad_om_over_r)
        self.acc_om_diss += w * (self._prev.om_diss + sample.om_diss)
        self._prev = sample
        self.state = new_state
        self.step_count += 1
        self.max_leakage = max(self.max_leakage, boundary_leakage(new_state))

    # -- diagnostics ----------------------------------------------------------

    def record(self, with_ratios: bool = True) -> DiagnosticsRecord:
        st = self.state
        g = self.grid
        e_kin = st.kinetic_energy()
        sup_gamma = st.Gamma.norm(np.inf)
        l4_uth = st.uth.norm(4)
        q = st.omega.values / g.rcol
        l2_q = lp_norm(g, q, 2)
        l2_om = st.omega.norm(2)
        if self.e_kin0 > 0:
            residual = (
                abs(
                    e_kin
                    + 2.0 * (self.acc_diss_v + self.acc_diss_uth + self.acc_diss_sw)
                    + self.acc_flux
                    - self.e_kin0
                )
                / self.e_kin0
            )
        else:
            residual = 0.0
        e_bound = self.l2_om_over_r0**2 + self.sup_gamma0**2 * self.e_kin0
        lhs_1_11 = l2_q**2 + self.acc_grad_q
        lhs_1_12 = l2_om**2 + self.acc_om_diss
        margin_1_6 = sup_gamma - self.sup_gamma0
        margin_1_7 = l4_uth - math.sqrt(self.sup_gamma0) * math.sqrt(self.l2_u0)
        rec = DiagnosticsRecord(
            t=st.t,
            e_kin=e_kin,
            diss_v=self.acc_diss_v,
            diss_uth=self.acc_diss_uth,
            diss_swirl_weight=self.acc_diss_sw,
            bdry_flux=self.acc_flux,
            budget_residual_1_5=residual,
            sup_gamma=sup_gamma,
            l4_uth=l4_uth,
            l2_om_over_r=l2_q,
            l2_om=l2_om,
            e_bound_1_11=e_bound,
            lhs_1_11=lhs_1_11,
            lhs_1_12=lhs_1_12,
            margin_1_6=margin_1_6,
            margin_1_7=margin_1_7,
            dev_5_3=identity_5_3_check(st),
            h1=h1_proxy(st),
            l2_grad_om_over_r=math.sqrt(self._prev.grad_om_over_r),
            l2_grad_om=math.sqrt(
                max(self._prev.om_diss - l2_q**2, 0.0)
            ),
        )
        if with_ratios:
            ratios = state_inequality_ratios(st)
            rec.ratio_1_7 = ratios["E1_7"]
            rec.ratio_1_10 = ratios["E1_10"]
            rec.ratio_5_3 = ratios["E5_3"]
            rec.ratio_5_4 = ratios["E5_4"]
            rec.ratio_5_5 = ratios["E5_5"]
            rec.ratio_5_6 = ratios["E5_6"]
            rec.ratio_5_7 = ratios["E5_7"]
            rec.ratio_5_8 = ratios["E5_8"]
        return rec


def configured_initial_state(cfg: SolverConfig, solver: EllipticSolver) -> AxisymState:
    """The initial data cfg describes, on the solver's grid."""
    return make_initial_data(
        solver.grid,
        cfg.init_kind,
        amplitude=cfg.amplitude,
        r_support=cfg.r_support,
        z_mode=cfg.z_mode,
        seed=cfg.seed,
        omega_amplitude=cfg.omega_amplitude,
        n_modes=cfg.n_modes,
        z_support=cfg.z_support,
        solver=solver,
    )


def run_simulation(
    cfg: SolverConfig,
    sources=None,
    initial_state: AxisymState | None = None,
    out_dir=None,
    record_every_step: bool = False,
) -> SimulationResult:
    """Drive one configured run to t_end, recording diagnostics.

    Deterministic for a fixed (config, seed): the adaptive dt depends only
    on the evolving state.  Halts with status "halted_blowup" when any
    field exceeds the blow-up threshold or goes non-finite.
    """
    grid = build_grid(cfg.r_min, cfg.R, cfg.L_z, cfg.n_r, cfg.n_z)
    solver = EllipticSolver(grid)
    state = initial_state if initial_state is not None else configured_initial_state(cfg, solver)
    stepper = Stepper(cfg, grid, solver, state, sources=sources)
    records = [stepper.record()]
    status = "completed"
    eps = 1e-12 * max(cfg.t_end, 1.0)
    next_out = cfg.output_interval

    def emit():
        records.append(stepper.record())

    while stepper.state.t < cfg.t_end - eps:
        remaining = cfg.t_end - stepper.state.t
        if cfg.dt is not None:
            dt = min(cfg.dt, remaining)
        else:
            dt = min(
                cfg.cfl * stepper.dt_bound(),
                0.25 * cfg.output_interval,
                remaining,
            )
        try:
            stepper.step(dt)
        except BlowupError:
            status = "halted_blowup"
            emit()
            break
        sup_now = max(
            stepper.state.Gamma.norm(np.inf),
            stepper.state.omega.norm(np.inf),
        )
        if not math.isfinite(sup_now) or sup_now > cfg.blowup_threshold:
            status = "halted_blowup"
            emit()
            break
        if record_every_step:
            emit()
            continue
        if stepper.state.t >= next_out - eps:
            emit()
            while next_out <= stepper.state.t + eps:
                next_out += cfg.output_interval
    if status == "completed" and records[-1].t < cfg.t_end - eps:
        emit()

    checkpoints: list[str] = []
    if out_dir is not None and cfg.checkpoint == "final":
        from pathlib import Path

        path = Path(out_dir) / "final_state.axns"
        checkpoint_save(stepper.state, path)
        checkpoints.append(str(path))
    return SimulationResult(records, stepper.state, status, stepper.max_leakage, checkpoints)


# -- drift-diffusion runner -----------------------------------------------------


@dataclass
class DriftSpec:
    """Prescribed divergence-free drift, optionally with the critical-time
    modulation amplitude t^-(1/2 - 3/(2p))."""

    br: np.ndarray
    bz: np.ndarray
    modulation_p: float | None = None
    t_floor: float | None = None

    def scale(self, t: float, dt: float) -> float:
        if self.modulation_p is None:
            return 1.0
        beta = 0.5 - 1.5 / self.modulation_p
        floor = self.t_floor if self.t_floor is not None else dt
        return max(t, floor) ** (-beta)

    def at(self, t: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
        s = self.scale(t, dt)
        return s * self.br, s * self.bz


def make_divergence_free_drift(
    grid: Grid, amplitude: float, r_support: tuple[float, float], z_mode: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """(b_r, b_z) from a compact stream function: div-free, b.n = 0 at walls."""
    from .fields import bump_profile

    lo, hi = r_support
    psi_b = amplitude * bump_profile(grid.r, lo, hi)[:, None] * np.sin(
        2 * np.pi * z_mode * grid.z / grid.L_z
    )
    ur, uz = velocity_from_stream(ScalarField(grid, psi_b))
    return ur.values, uz.values


@dataclass
class DriftDiffusionRecord:
    t: float
    sup: float
    inf: float
    norms: dict[float, float]


def drift_diffusion_run(
    solver: EllipticSolver,
    gamma0: np.ndarray,
    drift: DriftSpec,
    t_end: float,
    dt: float | None = None,
    cfl: float = 0.4,
    advection: str = "centered2",
    diffusion: str = "crank_nicolson",
    norm_ps: tuple[float, ...] = (1.0, 2.0, 4.0),
    output_interval: float | None = None,
) -> list[DriftDiffusionRecord]:
    """Evolve the swirl-momentum equation with a prescribed drift.

    Records sup, inf, and L^p norms over time; with the monotone scheme
    (upwind1/explicit) the discrete maximum principle is exact.
    """
    grid = solver.grid
    advect = _advection(advection)
    if np.max(np.abs(drift.br[0, :])) > 0 or np.max(np.abs(drift.br[-1, :])) > 0:
        raise ValueError("drift must satisfy b.n = 0 at the radial walls")
    f = np.array(gamma0, dtype=float)
    t = 0.0

    def rec(t, f):
        return DriftDiffusionRecord(
            t,
            float(np.max(f)),
            float(np.min(f)),
            {p: lp_norm(grid, f, p) for p in norm_ps},
        )

    records = [rec(t, f)]
    out_iv = output_interval if output_interval is not None else max(t_end / 20, 1e-12)
    next_out = out_iv
    eps = 1e-12 * max(t_end, 1.0)
    diff_rate = (
        1.0 / solver.explicit_stability_bound("L1") if diffusion == "explicit" else 0.0
    )
    while t < t_end - eps:
        br, bz = drift.at(t, dt if dt is not None else 1e-6)
        vr = float(np.max(np.abs(br)))
        vz = float(np.max(np.abs(bz)))
        rate = diff_rate + vr / grid.h_r + vz / grid.h_z
        bound = 1.0 / rate if rate > 0 else math.inf
        step_dt = min(dt if dt is not None else cfl * bound, cfl * bound, t_end - t)
        if step_dt <= 0 or not math.isfinite(step_dt):
            step_dt = min(t_end - t, out_iv)
        times = (t, t + step_dt)

        def tendency(fields, stage):
            br, bz = drift.at(times[stage], step_dt)
            return [advect(grid, fields[0], br, bz)]

        (f,) = _strang_heun(solver, (f,), ("L1",), step_dt, tendency, diffusion)
        t += step_dt
        if t >= next_out - eps or t >= t_end - eps:
            records.append(rec(t, f))
            while next_out <= t + eps:
                next_out += out_iv
    return records


# -- Picard iteration -------------------------------------------------------------


@dataclass
class PicardResult:
    """Per-iterate weighted norms K_j and successive differences delta_j."""

    p: float
    gamma_exponent: float
    out_times: list[float]
    K: list[float]
    delta: list[float]
    diverged: bool
    final_states: list[AxisymState]

    @property
    def ratios(self) -> list[float]:
        return [
            self.delta[j + 1] / self.delta[j] if self.delta[j] > 0 else math.nan
            for j in range(len(self.delta) - 1)
        ]


def _vector_p_norm(grid: Grid, ur, uth, uz, p) -> float:
    return lp_norm(grid, np.sqrt(ur**2 + uth**2 + uz**2), p)


def _gradient_p_norm(grid: Grid, ur, uth, uz, p) -> float:
    mag2 = (
        ddr(grid, ur) ** 2
        + ddz(grid, ur) ** 2
        + (ur / grid.rcol) ** 2
        + ddr(grid, uz) ** 2
        + ddz(grid, uz) ** 2
        + ddr(grid, uth) ** 2
        + ddz(grid, uth) ** 2
        + (uth / grid.rcol) ** 2
    )
    return lp_norm(grid, np.sqrt(mag2), p)


def picard_iterate(
    solver: EllipticSolver,
    state0: AxisymState,
    T: float,
    j_max: int,
    p: float,
    dt: float,
    n_out: int = 10,
    advection: str = "centered2",
    diffusion: str = "crank_nicolson",
) -> PicardResult:
    """Reduced-form Picard iteration for the coupled system.

    Iterate j+1 solves the linear parabolic pair driven by iterate j's
    velocity history (drift v_j, reaction u_r_j/r, swirl source from
    Gamma_j); the first iterate evolves with zero drift and source.
    Returns K_j = sup_t t^gamma (||u_j||_p + t^(1/2) ||grad u_j||_p) and
    the same weighted distance delta_j between consecutive iterates.
    """
    if not (T > 0 and j_max >= 2):
        raise ValueError("need T > 0 and j_max >= 2")
    if not (3.0 < p < math.inf):
        raise ValueError(f"p must lie in (3, inf), got {p}")
    grid = solver.grid
    gamma_exp = 0.5 - 1.5 / p
    n_steps = max(1, int(round(T / dt)))
    dt = T / n_steps
    out_idx = sorted(set(np.linspace(1, n_steps, min(n_out, n_steps), dtype=int).tolist()))
    out_times = [i * dt for i in out_idx]

    zeros = np.zeros(grid.shape)
    # histories at step boundaries 0..n_steps for the previous iterate
    prev_ur = [zeros] * (n_steps + 1)
    prev_uz = [zeros] * (n_steps + 1)
    prev_gamma = [zeros] * (n_steps + 1)

    K: list[float] = []
    snapshots: list[dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]] = []
    final_states: list[AxisymState] = []

    for _j in range(1, j_max + 1):
        gamma = state0.Gamma.values.copy()
        omega = state0.omega.values.copy()
        # the iterate's own velocity history starts from the shared initial state
        ur_hist = [state0.ur.values]
        uz_hist = [state0.uz.values]
        gamma_hist = [gamma.copy()]
        snaps: dict[int, tuple] = {}
        k_val = 0.0
        for n in range(n_steps):
            def tendency(fields, stage):
                i = n + stage  # history index of the stage time
                return _coupled_rates(
                    grid, advection, *fields, prev_ur[i], prev_uz[i], prev_gamma[i]
                )

            gamma, omega = _strang_heun(
                solver, (gamma, omega), ("L1", "L0p"), dt, tendency, diffusion
            )
            psi = solver.solve_stream(omega)
            urf, uzf = velocity_from_stream(psi)
            ur_hist.append(urf.values)
            uz_hist.append(uzf.values)
            gamma_hist.append(gamma)
            step_idx = n + 1
            if step_idx in out_idx:
                uth = gamma / grid.rcol
                t_out = step_idx * dt
                val = t_out**gamma_exp * (
                    _vector_p_norm(grid, urf.values, uth, uzf.values, p)
                    + math.sqrt(t_out) * _gradient_p_norm(grid, urf.values, uth, uzf.values, p)
                )
                k_val = max(k_val, val)
                snaps[step_idx] = (urf.values.copy(), uth.copy(), uzf.values.copy())
        K.append(k_val)
        snapshots.append(snaps)
        final_states.append(state_from_dynamic(grid, T, gamma, omega, solver=solver))
        prev_ur, prev_uz, prev_gamma = ur_hist, uz_hist, gamma_hist

    delta: list[float] = []
    for j in range(len(snapshots) - 1):
        d = 0.0
        for idx in out_idx:
            a = snapshots[j][idx]
            b = snapshots[j + 1][idx]
            t_out = idx * dt
            dur, duth, duz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
            d = max(
                d,
                t_out**gamma_exp
                * (
                    _vector_p_norm(grid, dur, duth, duz, p)
                    + math.sqrt(t_out) * _gradient_p_norm(grid, dur, duth, duz, p)
                ),
            )
        delta.append(d)
    grow = 0
    diverged = False
    for j in range(1, len(delta)):
        grow = grow + 1 if delta[j] > delta[j - 1] else 0
        if grow >= 3:
            diverged = True
            break
    return PicardResult(p, gamma_exp, out_times, K, delta, diverged, final_states)
