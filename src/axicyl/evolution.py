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
from dataclasses import dataclass, replace

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
from .fields import AxisymState, make_initial_data, state_from_dynamic, velocity_from_stream
from .grid import Grid, lp_norm, r_differences, square, z_differences


class BlowupError(RuntimeError):
    """A step cannot be taken: its dt exceeds the scheme's CFL bound, or the
    fields it makes leave the finite range.  The run must halt."""


# A blowing-up run overflows, and numpy's warnings would only repeat what the
# run reports, or end it under -W error.  Two places keep them quiet, as
# decorators (the thread-safe form of errstate).  A step's arithmetic
# (_strang_heun) may overflow and then make nan of inf - inf: either reaches
# Gamma or omega, whose state's construction (_stepped_state) rejects it
# right after as BlowupError, a numerical halt.  A diagnostic of a finite
# state too large to square reads inf (_quiet_overflow); an invalid
# operation there still warns, as no finiteness check follows a diagnostic.
_quiet_step = np.errstate(over="ignore", invalid="ignore")
_quiet_overflow = np.errstate(over="ignore")


def _stepped_state(solver: EllipticSolver, t: float, gamma, omega, spectra) -> AxisymState:
    """The state of a step's (Gamma, omega) at t (state_from_dynamic), its
    stream solve starting from omega's carried spectrum when there is one.
    A non-finite field ends the step: BlowupError naming it."""
    omega_hat = None if spectra is None else spectra[1]
    try:
        return state_from_dynamic(solver, t, gamma, omega, omega_hat)
    except ValueError as exc:
        raise BlowupError(f"non-finite fields at t = {t:.6g}: {exc}") from exc


def advect_centered(grid: Grid, f: np.ndarray, ar: np.ndarray, az: np.ndarray) -> np.ndarray:
    """Centred -v.grad f from the velocity's difference factors
    ar = -u_r/(2 h_r) and az = -u_z/(2 h_z), which multiply f's raw
    differences (grid.r_differences, grid.z_differences)."""
    out = r_differences(f)
    out *= ar
    dz = z_differences(f)
    dz *= az
    out += dz
    return out


def advect_upwind(grid: Grid, f: np.ndarray, ur: np.ndarray, uz: np.ndarray) -> np.ndarray:
    """First-order upwind -v.grad f; monotone under the CFL bound.

    Each one-sided difference is computed once.  In r they sit between two
    zero rows, so node i's backward difference is row i and its forward one
    row i + 1.  In z the forward differences come from one flat pass, as in
    grid.z_differences, with the wrap column overwritten after it; node j's
    backward difference is the forward one of column j - 1, periodically.
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
    out = z_differences(gamma**2)
    out *= grid.factors.swirl_feed
    return out


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


@_quiet_step
def _strang_heun(
    solver: EllipticSolver, gamma, omega, dt: float, tendency, scheme: str, spectra
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
    halt: str  # what halted the run, "" when it completed
    max_leakage: float
    max_h1: float  # the largest h1 of a recorded state (Stepper), 0 without records

    @property
    def status(self) -> str:
        return "halted_blowup" if self.halt else "completed"


class Stepper:
    """Owns one evolving state and, once record() opens it, the budget ledger.

    The state is stepped on its own solver; cfg gives the scheme and the
    CFL number.  The ledger holds the t = 0 references of the estimates and
    the trapezoid-rule time integrals of the dissipation samples.  The
    first record() opens it, which must happen before the first step: a
    stepper that is never recorded samples nothing, and its steps are
    bit-identical to those of a recorded one.

    Each step builds its state with state_from_dynamic, whose check of the
    four fields it keeps leaves their sup norms on the state (AxisymState.sup) for
    the blow-up threshold, the records and the next step's CFL bound.  A
    dt past cfg.cfl * dt_bound() or a non-finite field ends the step as
    BlowupError, on the state it started from.
    """

    def __init__(self, cfg: SolverConfig, state: AxisymState, sources=None):
        self.cfg = cfg
        self.solver = state.solver
        self.grid = state.grid
        self.state = state
        self.sources = sources  # None or (S_gamma(t)->array, S_omega(t)->array)
        self.step_count = 0
        # the strang_cn spectra of self.state, which the next step starts
        # from: built on the first step, dropped when a step raises
        self._carried: tuple | None = None
        # the dissipation sample of self.state once the ledger is open, else
        # None: record() reads it, and it is the left end of the next step's
        # trapezoid
        self._prev: DissipationSample | None = None
        self.max_leakage = math.nan
        # the largest h1 = (||u||_2^2 + ||grad v||_2^2 + ||grad u_th||_2^2)^(1/2)
        # of a recorded state, eps_sweep's sup_h1_proxy
        self.max_h1 = 0.0

    def _open_ledger(self, e_kin: float, l2_om_over_r: float) -> None:
        """The t = 0 references, the first sample and the first leakage,
        from the first record's E_kin and ||omega/r||_2."""
        if self.step_count:
            raise RuntimeError(
                f"the budget ledger opens at t = 0, not after {self.step_count} step(s): "
                "call record() before the first step"
            )
        state = self.state
        self.integrals = DissipationSample(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        self._prev = dissipation_sample(state)
        self.e_kin0 = e_kin
        self.sup_gamma0 = state.sup["Gamma"]
        self.l2_u0 = math.sqrt(self.e_kin0)
        self.l2_om_over_r0 = l2_om_over_r
        self.max_leakage = boundary_leakage(state)
        # the right-hand side of (1.11)
        self.e_bound = square(self.l2_om_over_r0) + square(self.sup_gamma0) * self.e_kin0

    def dt_bound(self) -> float:
        """Largest stable dt before the CFL number: the advective bound, plus
        the diffusive rate of L1 and L0' for the monotone scheme."""
        vr, vz = self.state.sup["ur"], self.state.sup["uz"]
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
            raise BlowupError(
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

        spectra, self._carried = self._carried, None
        gamma, omega, spectra = _strang_heun(
            self.solver, self.state.Gamma, self.state.omega, dt, tendency, self.cfg.scheme, spectra
        )
        new_state = _stepped_state(self.solver, t + dt, gamma, omega, spectra)
        if self._prev is not None:
            self._sample(new_state, dt)
        self.state = new_state
        self._carried = spectra
        self.step_count += 1

    @_quiet_overflow
    def _sample(self, new_state: AxisymState, dt: float) -> None:
        """The ledger's trapezoid step to new_state, dt after the current state."""
        sample = dissipation_sample(new_state)
        w = 0.5 * dt
        self.integrals = DissipationSample(
            *(acc + w * (a + b) for acc, a, b in zip(self.integrals, self._prev, sample))
        )
        self._prev = sample
        self.max_leakage = max(self.max_leakage, boundary_leakage(new_state))

    # -- diagnostics ----------------------------------------------------------

    @_quiet_overflow
    def record(self) -> DiagnosticsRecord:
        """The diagnostics of the current state; its gradient integrals come
        from the step's dissipation sample of that state.

        The first call opens the ledger, and raises RuntimeError once the
        stepper has stepped: the time integrals cannot start late.
        """
        st = self.state
        g = self.grid
        e_kin = st.kinetic_energy()
        l2_q = lp_norm(g, st.omega / g.factors.r, 2)
        if self._prev is None:
            self._open_ledger(e_kin, l2_q)
        sample = self._prev
        acc = self.integrals
        sup_gamma = st.sup["Gamma"]
        l4_uth = lp_norm(g, st.uth, 4)
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
        lhs_1_11 = square(l2_q) + acc.grad_om_over_r
        lhs_1_12 = square(l2_om) + acc.om_diss
        margin_1_6 = sup_gamma - self.sup_gamma0
        margin_1_7 = l4_uth - math.sqrt(self.sup_gamma0) * math.sqrt(self.l2_u0)
        self.max_h1 = max(self.max_h1, math.sqrt(e_kin + sample.diss_v + sample.diss_uth))
        return DiagnosticsRecord(
            t=st.t,
            E_kin=e_kin,
            diss_v=acc.diss_v,
            diss_uth=acc.diss_uth,
            diss_swirl_weight=acc.diss_sw,
            bdry_flux=acc.flux,
            budget_residual_1_5=residual,
            sup_Gamma=sup_gamma,
            l4_uth=l4_uth,
            l2_om_over_r=l2_q,
            l2_om=l2_om,
            E_bound_1_11=self.e_bound,
            lhs_1_11=lhs_1_11,
            lhs_1_12=lhs_1_12,
            margin_1_6=margin_1_6,
            margin_1_7=margin_1_7,
            dev_5_3=deviation_5_3(sample.diss_v, l2_om),
        )


def run_simulation(
    cfg: SolverConfig, state: AxisymState, sources=None, *, records: bool
) -> SimulationResult:
    """Step state to cfg's t_end in steps of cfg.dt, the last one cut to end
    there, on the state's own solver; no file is written (the caller saves
    result.final_state, as cmd_run does).

    cfg gives the step, scheme and halt keys; its grid keys are not read,
    so the grid is the state's.  A cfg without dt is a ValueError.  Halts
    with status "halted_blowup" when a step exceeds the CFL bound or makes
    a field non-finite, or Gamma or omega exceeds the blow-up threshold;
    result.halt says which, and the run stops at the last state it made.

    With records, t = 0, every output time and the final state are
    recorded, each state once (output_interval = dt records every step),
    and a budget ledger that opens with a non-finite E_kin or (1.11) bound
    halts the run at t = 0.  Without, nothing is recorded, for a caller
    that reads only the final state: the stepper keeps no ledger
    (result.max_leakage is nan), and the steps, and so the final state,
    are the same bit for bit.
    """
    if cfg.dt is None:
        raise ValueError("run_simulation needs a cfg with dt")
    stepper = Stepper(cfg, state, sources=sources)
    recorded: list[DiagnosticsRecord] = []
    halt = ""
    eps = 1e-12 * max(cfg.t_end, 1.0)
    next_out = cfg.output_interval

    def emit():
        if records:
            recorded.append(stepper.record())

    emit()
    if records:
        first = recorded[0]
        bad = ", ".join(
            f"{name} = {value}"
            for name, value in (("E_kin", first.E_kin), ("E_bound_1_11", first.E_bound_1_11))
            if not math.isfinite(value)
        )
        if bad:
            halt = f"the budget ledger opens non-finite at t = 0: {bad}"
    while not halt and stepper.state.t < cfg.t_end - eps:
        try:
            stepper.step(min(cfg.dt, cfg.t_end - stepper.state.t))
        except BlowupError as exc:
            halt = str(exc)
            break
        sup = max(stepper.state.sup["Gamma"], stepper.state.sup["omega"])
        if sup > cfg.blowup_threshold:
            halt = (
                f"max(sup|Gamma|, sup|omega|) = {sup:.6g} exceeds run.blowup_threshold "
                f"= {cfg.blowup_threshold:.6g} at t = {stepper.state.t:.6g}"
            )
            break
        if stepper.state.t >= next_out - eps:
            emit()
            while next_out <= stepper.state.t + eps:
                next_out += cfg.output_interval
    if recorded and recorded[-1].t < stepper.state.t:
        emit()
    return SimulationResult(recorded, stepper.state, halt, stepper.max_leakage, stepper.max_h1)


# -- Picard iteration -------------------------------------------------------------


@dataclass
class PicardResult:
    """Per-iterate weighted norms K_j, successive differences delta_j, the
    last iterate's state at the end of the last step (t = n_steps * dt, T
    up to rounding), and the step dt = T / n_steps the iterates took."""

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


@dataclass
class PicardRow:
    """One picard.csv row: iterate j's K_j, delta_j and delta_(j+1) / delta_j,
    None where the iterates end first (an empty cell)."""

    j: int
    K_j: float
    delta_j: float | None
    delta_ratio: float | None


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
    iterate keeps the state of the step boundary it last reached
    (state_from_dynamic) and its spectra, so memory is O(j_max) fields,
    whatever n_steps is; a non-finite field ends the iteration as
    BlowupError.  K_j = sup_t t^gamma (||u_j||_p + t^(1/2)
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

    @_quiet_overflow
    def weighted_norm(t, u):
        """t^gamma (||u||_p + t^(1/2) ||grad u||_p), u = (u_r, u_theta, u_z)
        unpacked here, so a generator's differences run under the errstate."""
        ur, uth, uz = u
        speed = np.sqrt(ur**2 + uth**2 + uz**2)
        grad = np.sqrt(full_velocity_gradient_squared(grid, ur, uth, uz))
        return t**gamma_exp * (lp_norm(grid, speed, p) + math.sqrt(t) * lp_norm(grid, grad, p))

    zeros = (np.zeros(grid.shape),) * 3
    # per iterate: the state it last reached and that state's spectra;
    # every iterate starts from the shared initial state, which _strang_heun
    # leaves unmodified, and builds its own spectra on its first step
    iterates = [(state0, None)] * j_max
    K = [0.0] * j_max
    delta = [0.0] * (j_max - 1)
    for n in range(1, n_steps + 1):
        # the previous iterate's (u_r, u_z, Gamma) at steps n - 1 and n
        drive = (zeros, zeros)
        for j, (before, spectra) in enumerate(iterates):
            def tendency(gamma, omega, stage, omega_hat):
                ur, uz, gamma_feed = drive[stage]
                return _coupled_rates(grid, scheme, gamma, omega, ur, uz, gamma_feed)

            gamma, omega, spectra = _strang_heun(
                solver, before.Gamma, before.omega, dt, tendency, scheme, spectra
            )
            after = _stepped_state(solver, n * dt, gamma, omega, spectra)
            iterates[j] = after, spectra
            drive = (before.ur, before.uz, before.Gamma), (after.ur, after.uz, after.Gamma)
            if n in out_idx:
                snap = (after.ur, after.uth, after.uz)
                K[j] = max(K[j], weighted_norm(after.t, snap))
                if j:
                    diff = (b - a for a, b in zip(prev_snap, snap))
                    delta[j - 1] = max(delta[j - 1], weighted_norm(after.t, diff))
                prev_snap = snap
    grow = 0
    diverged = False
    for j in range(1, len(delta)):
        grow = grow + 1 if delta[j] > delta[j - 1] else 0
        if grow >= 3:
            diverged = True
            break
    return PicardResult(p, dt, K, delta, diverged, iterates[-1][0])


def picard_experiment(
    cfg: SolverConfig, T: float, j_max: int, p: float, dt: float
) -> tuple[PicardResult, float, float]:
    """Picard iterates of cfg's initial data against the direct solver.

    The iterates step with cfg's scheme (picard_iterate); the direct run
    steps the same initial state to T with the step they took, on the same
    solver.  Returns the iteration, the L2 distance of the two velocities
    at T, and its tolerance 10 (h_r^2 + step^2) ||u_0||_2.  A direct run
    that halts raises BlowupError with the run's halt reason.
    """
    grid = cfg.grid
    state0 = make_initial_data(EllipticSolver(grid), cfg)
    result = picard_iterate(state0, T=T, j_max=j_max, p=p, dt=dt, scheme=cfg.scheme)
    dt = result.dt
    run_cfg = replace(cfg, dt=dt, t_end=T, output_interval=T)
    run = run_simulation(run_cfg, state0, records=False)
    if run.halt:
        raise BlowupError(
            f"picard's direct run to t = {T:.6g} halted at t = {run.final_state.t:.6g}: "
            f"{run.halt}"
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
