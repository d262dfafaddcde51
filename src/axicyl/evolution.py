"""Time integration of the coupled (Gamma, omega) system, directly and by Picard iteration.

Equations advanced (unit viscosity, b = v = u_r e_r + u_z e_z):

    d_t Gamma + v.grad Gamma = L1 Gamma                      (+ source)
    d_t omega + v.grad omega = (u_r/r) omega + L0 omega
                               + d_z(Gamma^2)/r^3            (+ source)

with Robin(2/r_min) for Gamma and Dirichlet for omega at the inner wall,
zeros at the truncation wall, and v recovered from the stream solve of
omega after every stage.

scheme = strang_cn (default): Strang splitting, Crank-Nicolson for the
diffusion halves and Heun (RK2) for centred advection/reaction/source,
velocities re-derived at each Heun stage (needed for second order in the
coupling).  scheme = monotone (first-order upwind, explicit diffusion)
makes every Heun stage of the Gamma update a sub-convex combination, so
sup|Gamma| is exactly non-increasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import SolverConfig
from .diagnostics import (
    DiagnosticsRecord,
    DissipationSample,
    boundary_leakage,
    deviation_5_3,
    dissipation_sample,
    full_velocity_gradient_squared,
)
from .elliptic import EllipticSolver, pin
from .fields import (
    STATE_FIELDS,
    AxisymState,
    assemble_state,
    checkpoint_save,
    make_initial_data,
    state_from_dynamic,
    velocity_from_stream,
)
from .grid import Grid, build_grid, ddr, ddz, lp_norm


def _sup(f: np.ndarray) -> float:
    """max|f| from one max and one min reduction (no |f| array is formed);
    nan when f holds a non-finite value."""
    hi, lo = float(f.max()), float(f.min())
    if not (math.isfinite(hi) and math.isfinite(lo)):
        return math.nan
    return max(abs(hi), abs(lo))


class CFLError(RuntimeError):
    """Requested dt exceeds the stability bound of the chosen scheme."""


class BlowupError(RuntimeError):
    """Fields left the finite range; the run must halt."""


def advect_centered(grid: Grid, f: np.ndarray, ar: np.ndarray, az: np.ndarray) -> np.ndarray:
    """Centred -v.grad f from the velocity's difference factors
    ar = -u_r/(2 h_r) and az = -u_z/(2 h_z), which multiply f's raw
    differences (grid.ddr, grid.ddz)."""
    out = ddr(grid, f, ar)
    out += ddz(grid, f, az)
    return out


def advect_upwind(grid: Grid, f: np.ndarray, ur: np.ndarray, uz: np.ndarray) -> np.ndarray:
    """First-order upwind -v.grad f; monotone under the CFL bound.

    Each one-sided difference is computed once.  In r they sit between two
    zero rows, so node i's backward difference is row i and its forward one
    row i + 1.  In z the forward differences come from one flat pass, as in
    grid.ddz, with the wrap column overwritten after it; node j's backward
    difference is the forward one of column j - 1, periodically.
    """
    f = np.ascontiguousarray(f)
    n_r, n_z = f.shape
    dr = np.zeros((n_r + 1, n_z))
    np.subtract(f[1:], f[:-1], out=dr[1:-1])
    dr[1:-1] /= grid.h_r
    df_r = np.where(ur > 0, dr[:-1], dr[1:])
    fwd_z = np.empty_like(f)
    np.subtract(f.reshape(-1)[1:], f.reshape(-1)[:-1], out=fwd_z.reshape(-1)[:-1])
    np.subtract(f[:, 0], f[:, -1], out=fwd_z[:, -1])
    fwd_z /= grid.h_z
    up = uz > 0
    df_z = fwd_z.copy()
    np.copyto(df_z[:, 1:], fwd_z[:, :-1], where=up[:, 1:])
    np.copyto(df_z[:, 0], fwd_z[:, -1], where=up[:, 0])
    return -(ur * df_r + uz * df_z)


def swirl_vorticity_source(grid: Grid, gamma: np.ndarray) -> np.ndarray:
    """d_z(Gamma^2) / r^3, the vortex-stretching feed from swirl."""
    return ddz(grid, gamma**2, grid.factors.swirl_feed)


def _coupled_rates(grid: Grid, scheme: str, gamma, omega, ur, uz, gamma_feed):
    """Advection, reaction and swirl-feed tendencies of (Gamma, omega).

    The velocity (ur, uz) advects both fields and sets the reaction
    (u_r/r) omega; gamma_feed drives d_z(Gamma^2)/r^3.  The coupled run
    passes its own stage fields, Picard the previous iterate's fields at
    the stage time.  The sum k_omega = (advection + reaction) + feed is
    formed in place.
    """
    if scheme == "monotone":
        advect, velocity = advect_upwind, (ur, uz)
    else:  # the centred differences' factors, made once for both fields
        advect, velocity = advect_centered, (ur * (-0.5 / grid.h_r), uz * (-0.5 / grid.h_z))
    kg = advect(grid, gamma, *velocity)
    kw = advect(grid, omega, *velocity)
    reaction = np.divide(ur, grid.factors.r)
    reaction *= omega
    kw += reaction
    kw += swirl_vorticity_source(grid, gamma_feed)
    return kg, kw


def _strang_heun(
    solver: EllipticSolver, gamma, omega, dt: float, tendency, scheme: str, spectra=None
):
    """One Strang-split step of d_t Gamma = L1 Gamma + k_Gamma and
    d_t omega = L0' omega + k_omega.

    Crank-Nicolson half-steps of L1 and L0' bracket one Heun (RK2) step of
    the tendencies; with scheme = "monotone" the operators join the Heun
    tendencies instead.  tendency(gamma, omega, stage, omega_hat) returns
    fresh arrays (k_Gamma, k_omega), with stage 0 at the start of the step
    and stage 1 at its end; omega_hat is omega's spectrum on L0''s rows
    where the step holds it (stage 0 of strang_cn), else None.  Every stage
    and rate is pinned (elliptic.pin).  The input arrays are not modified;
    the rates are summed into and the corrector built in the arrays
    tendency returned, in the order of gamma + dt * k1 and gamma + (dt/2)
    (k1 + k2).

    Returns (gamma, omega, spectra).  Under strang_cn the half-diffusions
    run on z spectra, and the step carries them: spectra is the pair
    (Gamma's spectrum on L1's rows, omega's on L0''s) of the input fields,
    built here when None and overwritten by the step, and the returned pair
    is that of the returned fields, for the next step to start from.  The
    monotone scheme carries nothing: its spectra are None.
    """
    implicit = scheme == "strang_cn"

    def rates(g, w, stage, w_hat=None):
        kg, kw = tendency(g, w, stage, w_hat)
        if not implicit:
            kg += solver.apply_heat_operator(g, "L1")
            kw += solver.apply_heat_operator(w, "L0p")
        return pin(kg, "L1"), pin(kw, "L0p")

    def predictor(f, k, op):
        """f + dt * k, as a new array."""
        out = np.multiply(k, dt)
        out += f
        return pin(out, op)

    def corrector(f, k1, k2, op):
        """f + (dt / 2) (k1 + k2), in k1."""
        k1 += k2
        k1 *= 0.5 * dt
        k1 += f
        return pin(k1, op)

    def half_diffusion(g_hat, w_hat):
        """The half-steps in place; the fields of the stepped spectra."""
        solver.heat_step(g_hat, 0.5 * dt, "L1")
        solver.heat_step(w_hat, 0.5 * dt, "L0p")
        return solver.field(g_hat, "L1"), solver.field(w_hat, "L0p")

    w_hat = None
    if implicit:
        if spectra is None:
            spectra = solver.spectrum(gamma, "L1"), solver.spectrum(omega, "L0p")
        g_hat, w_hat = spectra
        gamma, omega = half_diffusion(g_hat, w_hat)
    kg1, kw1 = rates(gamma, omega, 0, w_hat)
    kg2, kw2 = rates(predictor(gamma, kg1, "L1"), predictor(omega, kw1, "L0p"), 1)
    gamma = corrector(gamma, kg1, kg2, "L1")
    omega = corrector(omega, kw1, kw2, "L0p")
    if not implicit:
        return gamma, omega, None
    spectra = solver.spectrum(gamma, "L1"), solver.spectrum(omega, "L0p")
    return (*half_diffusion(*spectra), spectra)


@dataclass
class SimulationResult:
    records: list[DiagnosticsRecord]
    final_state: AxisymState
    status: str  # completed | halted_blowup
    max_leakage: float
    checkpoints: list[str] = field(default_factory=list)


class Stepper:
    """Owns one evolving state and, once record() opens it, the budget ledger.

    The state is stepped on its own solver; cfg gives the scheme and the
    CFL number.  The ledger holds the t = 0 references of the estimates and
    the trapezoid-rule time integrals of the dissipation samples.  The
    first record() opens it, which must happen before the first step: a
    stepper that is never recorded samples nothing, and its steps are
    bit-identical to those of a recorded one.

    Each step makes one pass over each of the new state's six fields
    (sups): it checks that they are finite, and its sup norms serve the
    blow-up threshold, the records and the next step's CFL bound.
    """

    def __init__(self, cfg: SolverConfig, state: AxisymState, sources=None):
        self.cfg = cfg
        self.solver = state.solver
        self.grid = state.grid
        self.state = state
        self.sources = sources  # None or (S_gamma(t)->array, S_omega(t)->array)
        self.step_count = 0
        # (state, its strang_cn spectra): what the next step starts from, if
        # state is still self.state; built on the first step, dropped when a
        # step raises
        self._carried: tuple[AxisymState, tuple] | None = None
        # the dissipation sample of self.state once the ledger is open, else
        # None: record() reads it, and it is the left end of the next step's
        # trapezoid
        self._prev: DissipationSample | None = None
        self.max_leakage = math.nan
        # (state, max|f| of its six fields): the sups of self.state, if it is
        # still state
        self._sups: tuple[AxisymState | None, dict[str, float]] = (None, {})

    def sups(self) -> dict[str, float]:
        """max|f| of each of the current state's six fields, by name.

        A stepped state's come from its step's check pass; a state the
        stepper did not make (the initial one) gets its pass here.
        """
        state, sups = self._sups
        if state is not self.state:
            sups = {name: _sup(getattr(self.state, name)) for name in STATE_FIELDS}
            self._sups = self.state, sups
        return sups

    def _open_ledger(self) -> None:
        """The t = 0 references, the first sample and the first leakage."""
        if self.step_count:
            raise RuntimeError(
                f"the budget ledger opens at t = 0, not after {self.step_count} step(s): "
                "call record() before the first step"
            )
        state, grid = self.state, self.grid
        self.integrals = DissipationSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        self._prev = dissipation_sample(state)
        self.e_kin0 = state.kinetic_energy()
        self.sup_gamma0 = self.sups()["Gamma"]
        self.l2_u0 = math.sqrt(self.e_kin0)
        self.l2_om_over_r0 = lp_norm(grid, state.omega / grid.factors.r, 2)
        self.max_leakage = boundary_leakage(state)
        # the right-hand side of (1.11); a float power raises, not overflows
        # to inf, once sup|Gamma_0| passes about 1e154
        try:
            self.e_bound = self.l2_om_over_r0**2 + self.sup_gamma0**2 * self.e_kin0
        except OverflowError:
            self.e_bound = math.inf

    def dt_bound(self) -> float:
        """Largest stable dt before the CFL number: the advective bound, plus
        the diffusive rate of L1 and L0' for the monotone scheme."""
        sups = self.sups()
        vr, vz = sups["ur"], sups["uz"]
        if self.cfg.scheme == "monotone":
            diff_rate = 1.0 / min(
                self.solver.explicit_stability_bound("L1"),
                self.solver.explicit_stability_bound("L0p"),
            )
            return 1.0 / (diff_rate + vr / self.grid.h_r + vz / self.grid.h_z)
        bound = math.inf
        if vr > 0:
            bound = min(bound, self.grid.h_r / vr)
        if vz > 0:
            bound = min(bound, self.grid.h_z / vz)
        return bound

    # -- one step -------------------------------------------------------------

    def step(self, dt: float) -> None:
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        bound = self.dt_bound()
        if dt > self.cfg.cfl * bound * (1 + 1e-9):
            raise CFLError(
                f"dt = {dt:.3e} exceeds cfl * bound = {self.cfg.cfl * bound:.3e} "
                f"({self.cfg.scheme})"
            )
        t = self.state.t
        times = (t, t + dt)

        def tendency(gamma, omega, stage, omega_hat):
            psi = self.solver.solve_stream(omega, omega_hat)
            ur, uz = velocity_from_stream(self.grid, psi)
            kg, kw = _coupled_rates(self.grid, self.cfg.scheme, gamma, omega, ur, uz, gamma)
            if self.sources is not None:
                sg, so = self.sources
                kg += sg(times[stage])
                kw += so(times[stage])
            return kg, kw

        carried, self._carried = self._carried, None
        spectra = carried[1] if carried is not None and carried[0] is self.state else None
        gamma, omega, spectra = _strang_heun(
            self.solver, self.state.Gamma, self.state.omega, dt, tendency, self.cfg.scheme, spectra
        )

        # the check pass, one max and one min per field: Gamma and omega
        # before their state is built on them, then the derived fields
        sups = {"Gamma": _sup(gamma), "omega": _sup(omega)}
        if math.isnan(sups["Gamma"]) or math.isnan(sups["omega"]):
            raise BlowupError(f"non-finite fields at t = {t + dt:.6g}")
        omega_hat = None if spectra is None else spectra[1]
        new_state = assemble_state(self.solver, t + dt, gamma, omega, omega_hat)
        for name in STATE_FIELDS[2:]:
            sups[name] = _sup(getattr(new_state, name))
            if math.isnan(sups[name]):
                raise ValueError(f"{name} contains non-finite values")
        if self._prev is not None:
            sample = dissipation_sample(new_state)
            w = 0.5 * dt
            self.integrals = DissipationSample(
                *(acc + w * (a + b) for acc, a, b in zip(self.integrals, self._prev, sample))
            )
            self._prev = sample
            self.max_leakage = max(self.max_leakage, boundary_leakage(new_state))
        self.state = new_state
        self._sups = new_state, sups
        if spectra is not None:
            self._carried = (new_state, spectra)
        self.step_count += 1

    # -- diagnostics ----------------------------------------------------------

    def record(self) -> DiagnosticsRecord:
        """The diagnostics of the current state; its gradient integrals come
        from the step's dissipation sample of that state.

        The first call opens the ledger, and raises RuntimeError once the
        stepper has stepped: the time integrals cannot start late.
        """
        if self._prev is None:
            self._open_ledger()
        st = self.state
        g = self.grid
        sample = self._prev
        acc = self.integrals
        e_kin = st.kinetic_energy()
        sup_gamma = self.sups()["Gamma"]
        l4_uth = lp_norm(g, st.uth, 4)
        q = st.omega / g.factors.r
        l2_q = lp_norm(g, q, 2)
        l2_om = lp_norm(g, st.omega, 2)
        if self.e_kin0 > 0:
            residual = (
                abs(
                    e_kin
                    + 2.0 * (acc.diss_v + acc.diss_uth + acc.diss_sw)
                    + acc.flux
                    - self.e_kin0
                )
                / self.e_kin0
            )
        else:
            residual = 0.0
        lhs_1_11 = l2_q**2 + acc.grad_om_over_r
        lhs_1_12 = l2_om**2 + acc.om_diss
        margin_1_6 = sup_gamma - self.sup_gamma0
        margin_1_7 = l4_uth - math.sqrt(self.sup_gamma0) * math.sqrt(self.l2_u0)
        return DiagnosticsRecord(
            t=st.t,
            e_kin=e_kin,
            diss_v=acc.diss_v,
            diss_uth=acc.diss_uth,
            diss_swirl_weight=acc.diss_sw,
            bdry_flux=acc.flux,
            budget_residual_1_5=residual,
            sup_gamma=sup_gamma,
            l4_uth=l4_uth,
            l2_om_over_r=l2_q,
            l2_om=l2_om,
            e_bound_1_11=self.e_bound,
            lhs_1_11=lhs_1_11,
            lhs_1_12=lhs_1_12,
            margin_1_6=margin_1_6,
            margin_1_7=margin_1_7,
            dev_5_3=deviation_5_3(sample.diss_v, l2_om),
            h1=math.sqrt(e_kin + sample.diss_v + sample.diss_uth),
        )


def run_simulation(
    cfg: SolverConfig,
    sources=None,
    initial_state: AxisymState | None = None,
    out_dir=None,
    records: str = "outputs",
) -> SimulationResult:
    """Drive one configured run to t_end, recording diagnostics.

    Starts from initial_state, stepped on its own solver, whose grid must
    be the one cfg describes; else from the data cfg describes.
    Deterministic for a fixed (config, seed): the adaptive dt depends only
    on the evolving state.  Halts with status "halted_blowup" when any
    field exceeds the blow-up threshold or goes non-finite.

    records chooses the diagnostics: "outputs" records t = 0, every output
    time and the last state, "every_step" every step, and "none" nothing,
    for a caller that reads only the final state.  Without records the
    stepper keeps no budget ledger (result.max_leakage is nan); the steps,
    and so the final state, are the same bit for bit.
    """
    if records not in ("outputs", "every_step", "none"):
        raise ValueError(f"records must be outputs, every_step or none, got {records!r}")
    grid = build_grid(cfg.r_min, cfg.R, cfg.L_z, cfg.n_r, cfg.n_z)
    if initial_state is None:
        state = make_initial_data(EllipticSolver(grid), cfg)
    elif initial_state.grid.same_geometry(grid):
        state = initial_state
    else:
        g = initial_state.grid
        raise ValueError(
            f"initial state grid ({g.r_min}, {g.R}, {g.L_z}, {g.n_r}, {g.n_z}) "
            f"does not match the configured grid ({cfg.r_min}, {cfg.R}, {cfg.L_z}, "
            f"{cfg.n_r}, {cfg.n_z})"
        )
    stepper = Stepper(cfg, state, sources=sources)
    recorded: list[DiagnosticsRecord] = []
    status = "completed"
    eps = 1e-12 * max(cfg.t_end, 1.0)
    next_out = cfg.output_interval

    def emit():
        if records != "none":
            recorded.append(stepper.record())

    emit()
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
        sups = stepper.sups()  # finite: the step checked them
        if max(sups["Gamma"], sups["omega"]) > cfg.blowup_threshold:
            status = "halted_blowup"
            emit()
            break
        if records == "every_step":
            emit()
            continue
        if stepper.state.t >= next_out - eps:
            emit()
            while next_out <= stepper.state.t + eps:
                next_out += cfg.output_interval
    if status == "completed" and recorded and recorded[-1].t < cfg.t_end - eps:
        emit()

    checkpoints: list[str] = []
    if out_dir is not None and cfg.checkpoint == "final":
        from pathlib import Path

        path = Path(out_dir) / "final_state.axns"
        checkpoint_save(stepper.state, path)
        checkpoints.append(str(path))
    return SimulationResult(recorded, stepper.state, status, stepper.max_leakage, checkpoints)


# -- Picard iteration -------------------------------------------------------------


@dataclass
class PicardResult:
    """Per-iterate weighted norms K_j, successive differences delta_j, the
    last iterate's state at t = T, and the step dt = T / n_steps the
    iterates took."""

    p: float
    dt: float
    K: list[float]
    delta: list[float]
    diverged: bool
    final_state: AxisymState

    @property
    def ratios(self) -> list[float]:
        return [
            self.delta[j + 1] / self.delta[j] if self.delta[j] > 0 else math.nan
            for j in range(len(self.delta) - 1)
        ]


def picard_iterate(
    state0: AxisymState, T: float, j_max: int, p: float, dt: float, scheme: str
) -> PicardResult:
    """Reduced-form Picard iteration for the coupled system.

    Iterate j+1 solves the linear parabolic pair driven by iterate j's
    fields (drift v_j, reaction u_r_j/r, swirl source from Gamma_j); the
    first iterate evolves with zero drift and source.  All iterates step
    on state0's solver with the given scheme, in n_steps =
    max(1, round(T / dt)) equal steps of T / n_steps.

    The iterates advance in lockstep, each step taking j = 1 ... j_max in
    turn: iterate j+1's Heun stages read only iterate j's fields at the
    step's two ends, and iterate j has just reached the later one.  Each
    iterate keeps its (Gamma, omega, spectra) and its (u_r, u_z, Gamma) at
    the step boundary it last reached, so memory is O(j_max) fields,
    whatever n_steps is.  K_j = sup_t t^gamma (||u_j||_p + t^(1/2)
    ||grad u_j||_p) and the same weighted distance delta_j between
    consecutive iterates are running maxima over 10 evenly spread step
    boundaries.
    """
    if not (T > 0 and dt > 0 and j_max >= 2):
        raise ValueError(f"need T > 0, dt > 0 and j_max >= 2, got {T}, {dt}, {j_max}")
    if not (3.0 < p < math.inf):
        raise ValueError(f"p must lie in (3, inf), got {p}")
    solver = state0.solver
    grid = solver.grid
    gamma_exp = 0.5 - 1.5 / p
    n_steps = max(1, int(round(T / dt)))
    dt = T / n_steps
    out_idx = set(np.linspace(1, n_steps, min(10, n_steps), dtype=int).tolist())

    def weighted_norm(t, ur, uth, uz):
        """t^gamma (||u||_p + t^(1/2) ||grad u||_p)."""
        speed = np.sqrt(ur**2 + uth**2 + uz**2)
        grad = np.sqrt(full_velocity_gradient_squared(grid, ur, uth, uz))
        return t**gamma_exp * (lp_norm(grid, speed, p) + math.sqrt(t) * lp_norm(grid, grad, p))

    zeros = (np.zeros(grid.shape),) * 3
    # per iterate: (Gamma, omega, spectra, (u_r, u_z, Gamma) at its boundary);
    # every iterate starts from the shared initial state, which _strang_heun
    # leaves unmodified, and builds its own spectra on its first step
    iterates = [(state0.Gamma, state0.omega, None, (state0.ur, state0.uz, state0.Gamma))] * j_max
    K = [0.0] * j_max
    delta = [0.0] * (j_max - 1)
    for n in range(1, n_steps + 1):
        drive = (zeros, zeros)  # the previous iterate's fields at steps n - 1 and n
        for j, (gamma, omega, spectra, before) in enumerate(iterates):
            def tendency(gamma, omega, stage, omega_hat):
                ur, uz, gamma_feed = drive[stage]
                return _coupled_rates(grid, scheme, gamma, omega, ur, uz, gamma_feed)

            gamma, omega, spectra = _strang_heun(
                solver, gamma, omega, dt, tendency, scheme, spectra
            )
            omega_hat = None if spectra is None else spectra[1]
            ur, uz = velocity_from_stream(grid, solver.solve_stream(omega, omega_hat))
            after = (ur, uz, gamma)
            iterates[j] = gamma, omega, spectra, after
            drive = before, after
            if n in out_idx:
                snap = (ur, gamma / grid.rcol, uz)
                K[j] = max(K[j], weighted_norm(n * dt, *snap))
                if j:
                    diff = (b - a for a, b in zip(prev_snap, snap))
                    delta[j - 1] = max(delta[j - 1], weighted_norm(n * dt, *diff))
                prev_snap = snap
    grow = 0
    diverged = False
    for j in range(1, len(delta)):
        grow = grow + 1 if delta[j] > delta[j - 1] else 0
        if grow >= 3:
            diverged = True
            break
    final = state_from_dynamic(solver, T, gamma, omega, omega_hat)
    return PicardResult(p, dt, K, delta, diverged, final)


def picard_experiment(
    cfg: SolverConfig, T: float, j_max: int, p: float, dt: float
) -> tuple[PicardResult, float, float]:
    """Picard iterates of cfg's initial data against the direct solver.

    The iterates step with cfg's scheme (picard_iterate); the direct run
    steps the same initial state to T with the step they took, on the same
    solver.  Returns the iteration, the L2 distance of the two velocities
    at T, and its tolerance 10 (h_r^2 + step^2) ||u_0||_2.  A direct run
    that halts raises BlowupError.
    """
    grid = build_grid(cfg.r_min, cfg.R, cfg.L_z, cfg.n_r, cfg.n_z)
    state0 = make_initial_data(EllipticSolver(grid), cfg)
    result = picard_iterate(state0, T=T, j_max=j_max, p=p, dt=dt, scheme=cfg.scheme)
    dt = result.dt
    run_cfg = replace(cfg, dt=dt, t_end=T, output_interval=T, checkpoint="none")
    run = run_simulation(run_cfg, initial_state=state0, records="none")
    if run.status != "completed":
        raise BlowupError(
            f"picard's direct run to t = {T:.6g} halted at t = {run.final_state.t:.6g}"
        )
    direct = run.final_state
    du = result.final_state
    diff = math.sqrt(
        lp_norm(grid, du.ur - direct.ur, 2) ** 2
        + lp_norm(grid, du.uth - direct.uth, 2) ** 2
        + lp_norm(grid, du.uz - direct.uz, 2) ** 2
    )
    tol = 10.0 * (grid.h_r**2 + dt**2) * math.sqrt(state0.kinetic_energy())
    return result, diff, tol
