"""Command-line surface: one subcommand per experiment family.

    axicyl run          --config run.cfg --out results/
    axicyl mms          --config mms.cfg
    axicyl semigroup    --config semi.cfg
    axicyl picard       --config picard.cfg
    axicyl sweep-eps    --config sweep.cfg
    axicyl inequalities --config ineq.cfg
    axicyl info

Every command writes its CSV outputs plus a manifest.json (config echo,
code version, seed, wall times, output list, exit status) into the
output directory (--out, else $AXICYL_OUT, else the working directory).
run writes diagnostics.csv and then final_state.axns, the checkpoint of
its last state, completed or halted (a CFL excess included).
A negative --seed is a config error for every command.
Each CSV's header is its row type's field names (RunContext.write_rows),
and a field that is None is an empty cell.
Floats are serialized with 17 significant digits, so identical configs
give byte-identical files (semigroup's for a given BLAS build and thread
count: its modal transforms are dense products).

The manifests of run, semigroup, picard and inequalities add extra.perf:
the heat steps, factorizations (tridiagonal or radial eigenbasis) and
transforms (a field to or from either spectral layout) of their solvers
(EllipticSolver.counts); picard's iterates and direct run share one
solver, and inequalities builds each sample state once, on one solver,
for its report and both batch columns.  Only counts: timings never go
into the outputs.
Every manifest adds extra.process: the minor page faults taken during the
command, the peak resident memory of the whole process so far, and whether
main could raise glibc's heap thresholds (_keep_freed_heap).

COMMANDS gives each command's body, the solver keys it reads and its
experiment keys; _run_command does the rest.  A config key the command
does not read is a config error, and so is a key given twice, a value
outside its allowed values (config.check_value) or a non-finite one (inf
is allowed only as a Lebesgue exponent); the message names the key.
sweep-eps runs its eps values in threads, one per value up to the CPU
count; the error column of eps_sweep.csv and the manifest's
extra.failures hold what halted each halted run.

Exit codes: 0 success, 2 config error, 3 numerical halt, 4 I/O failure,
1 unexpected error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import json
import math
import os
import resource
import sys
import time
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .config import SOLVER_KEYS, ConfigError, SolverConfig, _get, check_value, load_config
from .diagnostics import DiagnosticsRecord, EpsSummary, InequalityReport, eps_sweep
from .diagnostics import inequality_batch, sigma_exponent
from .elliptic import (
    DEFAULT_SEMIGROUP_CASES,
    HEAT_OPERATORS,
    CommutationLevel,
    EllipticSolver,
    FitWindowError,
    SemigroupCase,
    commutation_ladder,
    semigroup_experiment,
)
from .evolution import BlowupError, PicardRow, picard_experiment, run_simulation
from .fields import checkpoint_save, make_initial_data

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

# glibc's mallopt parameters (malloc.h) and its own 64-bit ceilings for them
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD, TRIM_THRESHOLD = 32 << 20, 64 << 20
# ru_maxrss is in bytes on macOS, in KiB elsewhere
_MAXRSS_PER_MB = 2**20 if sys.platform == "darwin" else 2**10


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _exponent(raw: str) -> float:
    """A Lebesgue exponent: a finite number, or inf."""
    return math.inf if raw.strip() == "inf" else _finite(raw)


def _parse_cases(raw: str):
    """semigroup.cases: op:p:k entries separated by ';', e.g. L0:2:0;L1:inf:0."""
    cases = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        op, p_s, k_s = chunk.split(":")
        op, p, k = op.strip(), _exponent(p_s), int(k_s)
        if op not in HEAT_OPERATORS or not p >= 1 or k not in (0, 1):
            raise ValueError(f"bad semigroup case {chunk!r}")
        cases.append((op, p, k))
    if not cases:
        raise ValueError("no semigroup cases")
    return tuple(cases)


def _float_list(raw: str) -> list[float]:
    values = [float(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ValueError("no values")
    return values


# the most steps picard.t_end / picard.dt may ask for: it rejects a ratio
# that overflows and bounds the iteration's wall time, which grows with the
# step count (its memory does not)
PICARD_MAX_STEPS = 10_000


def _fmt(x) -> str:
    """A CSV cell; None, a value the row lacks, is an empty one."""
    if x is None:
        return ""
    return format(x, ".17g") if isinstance(x, float) else str(x)


def write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    """Comma-separated rows; a value holding a comma, quote or newline is quoted."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([_fmt(v) for v in row] for row in rows)


def _keep_freed_heap() -> bool:
    """Keep freed heap pages in the process: True if glibc took both thresholds.

    A 129x128 float array (132 KB) is just over glibc's initial 128 KiB mmap
    threshold.  glibc then raises the mmap threshold, and the trim threshold
    to twice it, to the size of the largest block freed, but a step frees far
    more than that at the top of the heap: the pages go back to the kernel
    and are faulted in again on the next step.  Setting both thresholds to
    glibc's 64-bit ceiling at the start keeps them.  Setting any threshold
    turns glibc's dynamic mmap threshold off, so the mmap threshold goes
    first and the trim threshold only if it took: the trim threshold alone
    would mmap every 132 KB array.  Without mallopt (macOS, Windows) nothing
    changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
        and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    )


class RunContext:
    """Tracks outputs and writes the manifest even when a command fails."""

    def __init__(self, command: str, out_dir: Path, heap_thresholds_set: bool):
        self.command = command
        self.out_dir = out_dir
        self.config_echo: dict[str, str] = {}
        self.seed = None  # the config's seed, for the commands that read one
        self.outputs: list[str] = []
        self.extra: dict = {}
        self.started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        self.heap_thresholds_set = heap_thresholds_set
        self.minflt_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def add_output(self, name: str) -> Path:
        path = self.out_dir / name
        self.outputs.append(str(path))
        return path

    def write_rows(self, name: str, row_type, rows) -> None:
        """rows, instances of the dataclass row_type, one column per field."""
        columns = tuple(f.name for f in dataclasses.fields(row_type))
        write_csv(self.add_output(name), columns, ([getattr(r, c) for c in columns] for r in rows))

    def finish(self, status: str) -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.extra["process"] = {
            "minor_page_faults": usage.ru_minflt - self.minflt_start,
            "peak_rss_mb": usage.ru_maxrss / _MAXRSS_PER_MB,
            "heap_thresholds_set": self.heap_thresholds_set,
        }
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


# -- subcommands ---------------------------------------------------------------


def cmd_run(cfg, s, ctx):
    result = run_simulation(cfg, make_initial_data(EllipticSolver(cfg.grid), cfg), records=True)
    ctx.write_rows("diagnostics.csv", DiagnosticsRecord, result.records)
    checkpoint_save(result.final_state, ctx.add_output("final_state.axns"))
    ctx.extra["max_boundary_leakage"] = result.max_leakage
    ctx.extra["perf"] = dict(result.final_state.solver.counts)
    if result.halt:
        raise BlowupError(result.halt)
    return EXIT_OK


def cmd_mms(cfg, s, ctx):
    from .manufactured import MMSLevel, NoOrderError, mms_convergence_study

    try:
        levels = mms_convergence_study(s.levels, s.n_base, s.t_end)
    except NoOrderError as exc:
        raise ConfigError(f"mms.t_end = {s.t_end}: {exc}") from exc
    ctx.write_rows("mms_orders.csv", MMSLevel, levels)
    return EXIT_OK


def cmd_semigroup(cfg, s, ctx):
    perf: Counter = Counter()
    try:
        results = semigroup_experiment(s.n, s.dt, s.cases, perf)
    except FitWindowError as exc:
        raise ConfigError(f"semigroup.n = {s.n} with semigroup.dt = {s.dt}: {exc}") from exc
    ctx.write_rows("semigroup_fits.csv", SemigroupCase, results)
    ctx.write_rows("commutation.csv", CommutationLevel, commutation_ladder(perf))
    ctx.extra["max_abs_error"] = max(abs(r.fitted_exponent - r.target_exponent) for r in results)
    ctx.extra["perf"] = dict(perf)
    return EXIT_OK


def cmd_picard(cfg, s, ctx):
    if not s.t_end / s.dt <= PICARD_MAX_STEPS:
        raise ConfigError(
            f"picard.t_end / picard.dt must be at most {PICARD_MAX_STEPS} steps, "
            f"got {s.t_end!r} / {s.dt!r}"
        )
    result, diff, tol = picard_experiment(cfg, s.t_end, s.j_max, s.p, s.dt)
    # the last iterate has no delta_j, and the last two no delta_ratio
    delta, ratios = result.delta + [None], result.ratios + [None, None]
    rows = map(PicardRow, range(1, len(result.K) + 1), result.K, delta, ratios)
    ctx.write_rows("picard.csv", PicardRow, rows)
    ctx.extra.update(
        {
            "direct_match_l2": diff,
            "direct_match_tolerance": tol,
            "diverged": result.diverged,
            "perf": dict(result.final_state.solver.counts),
        }
    )
    return EXIT_NUMERICAL if result.diverged else EXIT_OK


def cmd_sweep_eps(cfg, s, ctx):
    summaries = eps_sweep(cfg, s.eps)
    ctx.write_rows("eps_sweep.csv", EpsSummary, summaries)
    ctx.extra["failures"] = {_fmt(r.eps): r.error for r in summaries if r.error}
    return EXIT_OK


def cmd_inequalities(cfg, s, ctx):
    try:
        sigma_exponent(s.q, s.p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    solver = EllipticSolver(cfg.grid)
    seeds = range(cfg.seed, cfg.seed + s.samples)
    rows = inequality_batch(cfg, solver, seeds, (cfg.seed + 7000, cfg.seed + 9000), s.q, s.p)
    ctx.write_rows("inequalities.csv", InequalityReport, rows)
    ctx.extra["total_violations"] = sum(r.n_violations for r in rows if r.constant_free)
    ctx.extra["perf"] = dict(solver.counts)
    return EXIT_OK


class Command(NamedTuple):
    """One experiment command.  body(cfg, s, ctx) returns the exit code: cfg
    is the SolverConfig of the solver keys it reads (None if it reads none)
    and s holds the experiment keys' values by the name after the dot
    (picard.t_end -> s.t_end).  An experiment key maps to (parser, default,
    allowed range in check_value's notation, or None where the parser,
    eps_sweep or sigma_exponent checks it)."""

    body: Callable
    solver_keys: frozenset
    experiment_keys: dict

    @property
    def config_keys(self) -> frozenset:
        """Every config key the command reads."""
        return self.solver_keys | frozenset(self.experiment_keys)


# the solver keys each command reads: mms and semigroup build their own
# grids; picard steps with picard.dt to picard.t_end, though its direct run
# keeps time.cfl's check (picard_experiment); inequalities steps nothing and
# draws random_modes data (inequality_batch)
_ALL = frozenset(SOLVER_KEYS)
_GRID_INIT = frozenset(k for k in SOLVER_KEYS if k.startswith(("grid.", "init.")))
COMMANDS = {
    "run": Command(cmd_run, _ALL, {}),
    "mms": Command(cmd_mms, frozenset(), {
        "mms.levels": (int, 3, ">= 1"),
        "mms.n_base": (int, 64, ">= 4"),
        "mms.t_end": (_finite, 0.25, "> 0"),
    }),
    "semigroup": Command(cmd_semigroup, frozenset(), {
        "semigroup.n": (int, 385, ">= 5"),
        "semigroup.dt": (_finite, 1.0 / 300.0, "> 0"),
        "semigroup.cases": (_parse_cases, DEFAULT_SEMIGROUP_CASES, None),
    }),
    "picard": Command(cmd_picard, _ALL - {"time.dt", "time.t_end", "time.output_interval"}, {
        "picard.t_end": (_finite, 0.4, "> 0"),
        "picard.j_max": (int, 7, ">= 2"),
        "picard.p": (_finite, 6.0, "> 3"),
        "picard.dt": (_finite, 0.004, "> 0"),
    }),
    "sweep-eps": Command(cmd_sweep_eps, _ALL, {
        "sweep.eps": (_float_list, [1.0, 0.5, 0.25, 0.125], None),
    }),
    "inequalities": Command(cmd_inequalities, _GRID_INIT - {"init.kind", "init.z_mode"}, {
        "ineq.samples": (int, 200, ">= 1"),
        "ineq.q": (_finite, 2.0, None),
        "ineq.p": (_exponent, 4.0, None),
    }),
}


def _run_command(args, heap_thresholds_set: bool) -> int:
    """Run args.command's COMMANDS entry and write one manifest whatever happens.

    A config key the command does not read, a negative --seed, no time.dt
    where the command reads it (run, sweep-eps; checked before any step),
    or a ConfigError exits 2, a BlowupError 3 (a numerical halt, a step
    past the CFL bound included: status halted_blowup) and an OSError 4;
    the message goes to stderr and to the manifest's extra.error, next to
    the config echo (the file's own keys).  Any other exception, one in a
    sweep-eps run included, propagates (exit 1, with its traceback) once
    its type and message are in extra.error.
    """
    command = COMMANDS[args.command]
    ctx = RunContext(args.command, _resolve_out(args), heap_thresholds_set)
    status, code, error = "failed", EXIT_UNEXPECTED, None
    try:
        mapping = {} if args.config is None else load_config(args.config)
        ctx.config_echo = dict(sorted(mapping.items()))
        unknown = sorted(set(mapping) - command.config_keys)
        if unknown:
            raise ConfigError(f"{', '.join(unknown)} not read by {args.command}")
        check_value("--seed", args.seed, ">= 0")
        cfg = None
        if command.solver_keys:
            if args.seed is not None:
                mapping = {**mapping, "init.seed": str(args.seed)}
            cfg = SolverConfig.from_mapping(mapping)
            ctx.seed = cfg.seed
            if "time.dt" in command.solver_keys and cfg.dt is None:
                raise ConfigError(f"time.dt is required by {args.command}")
        s = SimpleNamespace()
        for key, (parse, default, allowed) in command.experiment_keys.items():
            value = _get(mapping, key, default, parse)
            check_value(key, value, allowed)
            setattr(s, key.split(".", 1)[1], value)
        code = command.body(cfg, s, ctx)
        status = "completed"
    except ConfigError as exc:
        code, error = EXIT_CONFIG, f"config error: {exc}"
    except BlowupError as exc:
        status, code, error = "halted_blowup", EXIT_NUMERICAL, f"numerical halt: {exc}"
    except OSError as exc:
        code, error = EXIT_IO, f"io failure: {exc}"
    except Exception as exc:
        error = f"unexpected error: {type(exc).__name__}: {exc}"
        raise
    finally:
        if error is not None:
            print(error, file=sys.stderr)
            ctx.extra["error"] = error
        ctx.finish(status)
    return code


def cmd_info(args) -> int:
    print(f"axicyl {__version__}")
    print(f"numpy {np.__version__}")
    print(f"python {sys.version.split()[0]}")
    print(f"subcommands: {', '.join(args.subcommands)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axicyl",
        description="Axisymmetric flow with swirl outside a cylinder: "
        "solver and estimate-verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*COMMANDS, "info"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output directory (default $AXICYL_OUT or .)")
        p.add_argument("--seed", type=int, default=None, help="override init.seed")
    parser.set_defaults(subcommands=tuple(sub.choices))  # what info lists
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "info":
        return cmd_info(args)
    try:
        return _run_command(args, _keep_freed_heap())
    except OSError as exc:  # the output directory itself is unusable
        print(f"io failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
