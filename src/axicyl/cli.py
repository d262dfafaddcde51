"""Command-line surface: one subcommand per experiment family.

    axicyl run          --config run.cfg --out results/
    axicyl mms          --config mms.cfg
    axicyl semigroup    --config semi.cfg
    axicyl picard       --config picard.cfg
    axicyl sweep-eps    --config sweep.cfg --threads 4
    axicyl inequalities --config ineq.cfg
    axicyl info

Every command writes its CSV outputs plus a manifest.json (config echo,
code version, seed, wall times, output list, exit status) into the
output directory (--out, else $AXICYL_OUT, else the working directory).
Floats are serialized with 17 significant digits, so identical configs
give byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical halt, 4 I/O failure,
1 unexpected error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, SolverConfig, _get, _get_float, _get_int, load_config
from .diagnostics import (
    CSV_COLUMNS,
    eps_sweep,
    interpolation_suite,
    random_scalar_samples,
    sigma_exponent,
)
from .elliptic import (
    DEFAULT_SEMIGROUP_CASES,
    HEAT_OPS,
    EllipticSolver,
    FitWindowError,
    commutation_check,
    semigroup_experiment,
)
from .evolution import (
    BlowupError,
    CFLError,
    configured_initial_state,
    picard_iterate,
    run_simulation,
)
from .fields import bump_profile, make_initial_data
from .grid import build_grid, lp_norm

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".17g")
    return str(x)


def write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


class RunContext:
    """Tracks outputs and writes the manifest even when a command fails."""

    def __init__(self, command: str, out_dir: Path, seed):
        self.command = command
        self.out_dir = out_dir
        self.config_echo: dict[str, str] = {}
        self.seed = seed
        self.outputs: list[str] = []
        self.extra: dict = {}
        self.started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())

    def add_output(self, path: Path) -> Path:
        self.outputs.append(str(path))
        return path

    def finish(self, status: str) -> None:
        manifest = {
            "command": self.command,
            "version": __version__,
            "config": self.config_echo,
            "seed": self.seed,
            "started": self.started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "outputs": self.outputs,
            "status": status,
            "extra": self.extra,
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolve_out(args) -> Path:
    out = args.out or os.environ.get("AXICYL_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _command(body):
    """A subcommand running body(args, mapping, ctx) -> (status, exit code).

    Writes one manifest whatever happens.  A ConfigError exits 2, a
    CFLError or BlowupError 3 and an OSError 4; the message goes to stderr
    and to the manifest's extra.error, next to the config echo.
    """

    @functools.wraps(body)
    def run(args) -> int:
        ctx = RunContext(args.command, _resolve_out(args), args.seed)
        status, code, error = "failed", EXIT_UNEXPECTED, None
        try:
            mapping = {} if args.config is None else load_config(args.config)
            ctx.config_echo = dict(sorted(mapping.items()))
            status, code = body(args, mapping, ctx)
        except ConfigError as exc:
            code, error = EXIT_CONFIG, f"config error: {exc}"
        except (CFLError, BlowupError) as exc:
            status, code, error = "halted_blowup", EXIT_NUMERICAL, f"numerical halt: {exc}"
        except OSError as exc:
            code, error = EXIT_IO, f"io failure: {exc}"
        finally:
            if error is not None:
                print(error, file=sys.stderr)
                ctx.extra["error"] = error
            ctx.finish(status)
        return code

    return run


def _exponent(raw: str) -> float:
    """A Lebesgue exponent: a number, or inf (also spelled oo)."""
    return math.inf if raw.strip() in ("inf", "oo") else float(raw)


# -- subcommands ---------------------------------------------------------------


@_command
def cmd_run(args, mapping, ctx):
    cfg = SolverConfig.from_mapping(mapping, seed_override=args.seed)
    ctx.seed = cfg.seed
    result = run_simulation(cfg, out_dir=ctx.out_dir)
    csv_path = ctx.add_output(ctx.out_dir / "diagnostics.csv")
    write_csv(csv_path, CSV_COLUMNS, (r.csv_row() for r in result.records))
    for chk in result.checkpoints:
        ctx.add_output(Path(chk))
    ctx.extra["max_boundary_leakage"] = result.max_leakage
    return result.status, EXIT_OK if result.status == "completed" else EXIT_NUMERICAL


@_command
def cmd_mms(args, mapping, ctx):
    from .manufactured import mms_convergence_study

    levels = _get_int(mapping, "mms.levels", 3)
    n_base = _get_int(mapping, "mms.n_base", 64)
    t_end = _get_float(mapping, "mms.t_end", 0.25)
    if levels < 1:
        raise ConfigError("mms.levels must be >= 1")
    if n_base < 4:
        raise ConfigError(f"mms.n_base must be >= 4, got {n_base}")
    results = mms_convergence_study(levels=levels, n_base=n_base, t_end=t_end)
    rows = [
        (
            i,
            lv.n,
            lv.h,
            lv.dt,
            lv.err_gamma,
            lv.err_omega,
            lv.err_combined,
            "" if math.isnan(lv.order) else _fmt(lv.order),
        )
        for i, lv in enumerate(results)
    ]
    write_csv(
        ctx.add_output(ctx.out_dir / "mms_orders.csv"),
        ("level", "n", "h", "dt", "err_gamma_l2", "err_omega_l2", "err_combined", "observed_order"),
        rows,
    )
    return "completed", EXIT_OK


def _parse_cases(raw: str):
    """semigroup.cases: op:p:k entries separated by ';', e.g. L0:2:0;L1:inf:0."""
    cases = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        op, p_s, k_s = chunk.split(":")
        op, p, k = op.strip(), _exponent(p_s), int(k_s)
        if op not in HEAT_OPS or not p >= 1 or k not in (0, 1):
            raise ValueError(f"bad semigroup case {chunk!r}")
        cases.append((op, p, k))
    if not cases:
        raise ValueError("no semigroup cases")
    return tuple(cases)


@_command
def cmd_semigroup(args, mapping, ctx):
    n = _get_int(mapping, "semigroup.n", 385)
    dt = _get_float(mapping, "semigroup.dt", 1.0 / 300.0)
    cases = _get(mapping, "semigroup.cases", DEFAULT_SEMIGROUP_CASES, _parse_cases)
    t_comm = _get_float(mapping, "semigroup.commutation_t", 0.05)
    if n < 5:
        raise ConfigError(f"semigroup.n must be >= 5, got {n}")
    if not (dt > 0 and t_comm > 0):
        raise ConfigError(
            f"semigroup.dt and semigroup.commutation_t must be positive, got {dt}, {t_comm}"
        )
    try:
        results = semigroup_experiment(n=n, dt=dt, cases=cases)
    except FitWindowError as exc:
        raise ConfigError(f"semigroup.n = {n} with semigroup.dt = {dt}: {exc}") from exc
    write_csv(
        ctx.add_output(ctx.out_dir / "semigroup_fits.csv"),
        ("op", "p", "k", "target_exponent", "fitted_exponent", "stderr", "prefactor"),
        (
            (r.op, "inf" if math.isinf(r.p) else _fmt(r.p), r.k, r.target, r.fitted, r.stderr, r.prefactor)
            for r in results
        ),
    )
    # commutation refinement ladder on a compact bump
    comm_rows = []
    prev = None
    for lvl, (nc, steps) in enumerate(((65, 16), (129, 32), (257, 64))):
        g = build_grid(1.0, 3.0, 2.0, nc, nc - 1)
        s = EllipticSolver(g)
        gam = bump_profile(g.r, 1.4, 2.5)[:, None] * (
            1 + 0.3 * np.sin(2 * np.pi * g.z / g.L_z)[None, :]
        )
        dev = commutation_check(s, gam, t_comm, t_comm / steps)
        comm_rows.append((lvl, nc, t_comm / steps, dev, "" if prev is None else _fmt(prev / dev)))
        prev = dev
    write_csv(
        ctx.add_output(ctx.out_dir / "commutation.csv"),
        ("level", "n", "dt", "deviation", "reduction_ratio"),
        comm_rows,
    )
    ctx.extra["max_abs_error"] = max(abs(r.fitted - r.target) for r in results)
    return "completed", EXIT_OK


@_command
def cmd_picard(args, mapping, ctx):
    cfg = SolverConfig.from_mapping(mapping, seed_override=args.seed)
    T = _get_float(mapping, "picard.t_end", 0.4)
    j_max = _get_int(mapping, "picard.j_max", 7)
    p = _get_float(mapping, "picard.p", 6.0)
    dt = _get_float(mapping, "picard.dt", 0.004)
    if not (T > 0 and dt > 0):
        raise ConfigError(f"picard.t_end and picard.dt must be positive, got {T}, {dt}")
    if j_max < 2:
        raise ConfigError(f"picard.j_max must be >= 2, got {j_max}")
    if not 3.0 < p < math.inf:
        raise ConfigError(f"picard.p must lie in (3, inf), got {p}")
    grid = build_grid(cfg.r_min, cfg.R, cfg.L_z, cfg.n_r, cfg.n_z)
    solver = EllipticSolver(grid)
    state0 = configured_initial_state(cfg, solver)
    result = picard_iterate(solver, state0, T=T, j_max=j_max, p=p, dt=dt)
    rows = []
    for j in range(len(result.K)):
        delta = result.delta[j] if j < len(result.delta) else ""
        ratio = result.ratios[j] if j < len(result.ratios) else ""
        rows.append((j + 1, result.K[j], delta, ratio))
    write_csv(
        ctx.add_output(ctx.out_dir / "picard.csv"),
        ("j", "K_j", "delta_j", "delta_ratio"),
        rows,
    )
    # direct-solver comparison at t = T
    run_cfg = replace(cfg, dt=dt, t_end=T, output_interval=T, checkpoint="none")
    direct = run_simulation(run_cfg, initial_state=state0.copy())
    du = result.final_states[-1]
    d = direct.final_state
    diff = math.sqrt(
        lp_norm(grid, du.ur.values - d.ur.values, 2) ** 2
        + lp_norm(grid, du.uth.values - d.uth.values, 2) ** 2
        + lp_norm(grid, du.uz.values - d.uz.values, 2) ** 2
    )
    tol = 10.0 * (grid.h_r**2 + dt**2) * math.sqrt(state0.kinetic_energy())
    ctx.extra.update(
        {
            "direct_match_l2": diff,
            "direct_match_tolerance": tol,
            "diverged": result.diverged,
        }
    )
    return "completed", EXIT_OK if not result.diverged else EXIT_NUMERICAL


@_command
def cmd_sweep_eps(args, mapping, ctx):
    template = SolverConfig.from_mapping(mapping, seed_override=args.seed)
    eps_list = _get(
        mapping,
        "sweep.eps",
        [1.0, 0.5, 0.25, 0.125],
        lambda raw: [float(tok) for tok in raw.split(",") if tok.strip()],
    )
    if not eps_list:
        raise ConfigError("sweep.eps must list at least one value")
    summaries = eps_sweep(template, eps_list, threads=max(1, args.threads))
    write_csv(
        ctx.add_output(ctx.out_dir / "eps_sweep.csv"),
        (
            "eps",
            "status",
            "sup_h1_proxy",
            "res_energy_6_1",
            "closure_6_2",
            "fitted_c_6_3",
            "max_leakage",
        ),
        (
            (
                s.eps,
                s.status,
                s.sup_h1_proxy,
                s.res_energy_6_1,
                s.closure_6_2,
                s.fitted_c_6_3,
                s.max_leakage,
            )
            for s in summaries
        ),
    )
    ctx.extra["n_failed"] = sum(1 for s in summaries if s.status != "completed")
    return "completed", EXIT_OK


@_command
def cmd_inequalities(args, mapping, ctx):
    cfg = SolverConfig.from_mapping(mapping, seed_override=args.seed)
    n_samples = _get_int(mapping, "ineq.samples", 200)
    q = _get_float(mapping, "ineq.q", 2.0)
    p = _get(mapping, "ineq.p", 4.0, _exponent)
    try:
        sigma_exponent(q, p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = build_grid(cfg.r_min, cfg.R, cfg.L_z, cfg.n_r, cfg.n_z)
    solver = EllipticSolver(grid)

    def batch(seed0, count):
        states = [
            make_initial_data(
                grid,
                "random_modes",
                amplitude=cfg.amplitude,
                seed=seed0 + i,
                r_support=cfg.r_support,
                n_modes=cfg.n_modes,
                solver=solver,
            )
            for i in range(count)
        ]
        b1 = random_scalar_samples(grid, count, seed=seed0 + 7000, vanish_at_wall=True)
        b2 = random_scalar_samples(grid, count, seed=seed0 + 9000, vanish_at_wall=False)
        return interpolation_suite(
            grid, states, scalar_samples_b1=b1, scalar_samples_b2=b2, q=q, p=p
        )

    half = max(1, n_samples // 2)
    full = batch(cfg.seed, n_samples)
    a = {r.inequality: r for r in batch(cfg.seed, half)}
    b = {r.inequality: r for r in batch(cfg.seed + half, half)}
    rows = []
    for rep in full:
        rows.append(
            (
                rep.inequality,
                rep.n_samples,
                rep.n_violations,
                rep.max_ratio,
                rep.tolerance,
                int(rep.constant_free),
                a[rep.inequality].max_ratio if rep.inequality in a else math.nan,
                b[rep.inequality].max_ratio if rep.inequality in b else math.nan,
            )
        )
    write_csv(
        ctx.add_output(ctx.out_dir / "inequalities.csv"),
        (
            "inequality",
            "n_samples",
            "n_violations",
            "max_ratio",
            "tolerance",
            "constant_free",
            "batch1_c",
            "batch2_c",
        ),
        rows,
    )
    ctx.extra["total_violations"] = sum(r.n_violations for r in full if r.constant_free)
    return "completed", EXIT_OK


def cmd_info(args) -> int:
    print(f"axicyl {__version__}")
    print(f"numpy {np.__version__}")
    print(f"python {sys.version.split()[0]}")
    print("subcommands: run, mms, semigroup, picard, sweep-eps, inequalities, info")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axicyl",
        description="Axisymmetric flow with swirl outside a cylinder: "
        "solver and estimate-verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "run": cmd_run,
        "mms": cmd_mms,
        "semigroup": cmd_semigroup,
        "picard": cmd_picard,
        "sweep-eps": cmd_sweep_eps,
        "inequalities": cmd_inequalities,
        "info": cmd_info,
    }
    for name, fn in handlers.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output directory (default $AXICYL_OUT or .)")
        p.add_argument("--seed", type=int, default=None, help="override init.seed")
        if name == "sweep-eps":
            p.add_argument("--threads", type=int, default=1, help="runs of the sweep in parallel")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OSError as exc:  # the output directory itself is unusable
        print(f"io failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
