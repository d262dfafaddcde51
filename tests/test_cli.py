import ast
import csv
import dataclasses
import json
import math
import os
import resource
import runpy
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import run_config
from hypothesis import given, settings
from hypothesis import strategies as st

import axicyl
from axicyl import cli, diagnostics, evolution, fields
from axicyl.cli import main
from axicyl.config import (
    SOLVER_KEYS,
    ConfigError,
    SolverConfig,
    load_config,
    parse_config_text,
)
from axicyl.diagnostics import (
    CONSTANT_FREE,
    IDENTITIES,
    TOLERANCES,
    DiagnosticsRecord,
    EpsSummary,
    gagliardo_nirenberg_ratio,
    random_scalar_samples,
    state_inequality_ratios,
)
from axicyl.elliptic import DEFAULT_SEMIGROUP_CASES, HEAT_OPERATORS, OPERATORS, EllipticSolver
from axicyl.fields import make_initial_data
from axicyl.grid import build_grid

ROOT = Path(__file__).resolve().parents[1]

RUN_CFG = """
# small deterministic run
grid.r_min = 1.0
grid.R = 3.0
grid.L_z = 2.0
grid.n_r = 33
grid.n_z = 32
time.dt = 0.005
time.t_end = 0.05
time.output_interval = 0.01
init.kind = swirl_bump
init.amplitude = 0.5
init.omega_amplitude = 0.25
init.r_lo = 1.3
init.r_hi = 2.4
"""

SWEEP_CFG = (
    "grid.r_min = 1.0\ngrid.R = 3.0\ngrid.L_z = 2.0\ngrid.n_r = 33\ngrid.n_z = 32\n"
    "time.dt = 0.004\ntime.t_end = 0.02\ntime.output_interval = 0.01\n"
    "init.kind = no_swirl_bump\ninit.r_lo = 1.3\ninit.r_hi = 2.4\n"
    "sweep.eps = 1,0.5\n"
)


# the header line of every CSV the commands write, spelled out: the headers
# are the row types' field names, and perfbench's checks and the acceptance
# gate read these columns by name, so a renamed field must fail here
HEADERS = {
    "diagnostics.csv": "t,E_kin,diss_v,diss_uth,diss_swirl_weight,bdry_flux,budget_residual_1_5,"
    "sup_Gamma,l4_uth,l2_om_over_r,l2_om,E_bound_1_11,lhs_1_11,lhs_1_12,margin_1_6,margin_1_7,"
    "dev_5_3",
    "mms_orders.csv": "level,n,h,dt,err_gamma_l2,err_omega_l2,err_combined,observed_order",
    "semigroup_fits.csv": "op,p,k,target_exponent,fitted_exponent,stderr,prefactor",
    "commutation.csv": "level,n,dt,deviation,reduction_ratio",
    "picard.csv": "j,K_j,delta_j,delta_ratio",
    "eps_sweep.csv": "eps,status,sup_h1_proxy,res_energy_6_1,closure_6_2,fitted_c_6_3,"
    "max_leakage,error",
    "inequalities.csv": "inequality,n_samples,n_violations,max_ratio,tolerance,constant_free,"
    "batch1_c,batch2_c",
}


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def with_lines(base, lines):
    """The config text base with lines in place of its lines of the same
    keys: a key given twice is a config error."""
    keys = {line.split(" =")[0] for line in lines.splitlines()}
    kept = [line for line in base.splitlines() if line.split(" =")[0] not in keys]
    return "\n".join(kept + lines.splitlines()) + "\n"


def test_parse_config_text():
    m = parse_config_text("a.b = 1 # comment\n\n# full line\nc.d = x\n")
    assert m == {"a.b": "1", "c.d": "x"}
    with pytest.raises(ConfigError):
        parse_config_text("novalue\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = \n")


def test_repeated_key_exits_2_naming_it_and_both_lines(tmp_path):
    # the second value silently won: a base config with an override appended
    # ran at the override, and the base's own value was never checked
    cfg = write_cfg(tmp_path, RUN_CFG + "# override\ngrid.n_r = 65\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extra"]["error"] == "config error: grid.n_r given twice, on lines 6 and 17"
    assert manifest["outputs"] == []


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(cfl=1.5)
    with pytest.raises(ConfigError):
        SolverConfig(scheme="upwind1")
    with pytest.raises(ConfigError):
        SolverConfig.from_mapping({"grid.n_r": "many"})


def test_solver_config_grid_is_the_grid_of_its_keys():
    keys = ("r_min", "R", "L_z", "n_r", "n_z")

    def assert_grid_of_keys(cfg):
        ref = build_grid(*(getattr(cfg, k) for k in keys))
        for name in keys + ("h_r", "h_z"):
            assert getattr(cfg.grid, name) == getattr(ref, name), name
        for name in ("r", "z"):
            assert np.array_equal(getattr(cfg.grid, name), getattr(ref, name)), name

    cfg = SolverConfig(r_min=1.5, R=3.7, L_z=2.3, n_r=17, n_z=12)
    assert_grid_of_keys(cfg)
    wider = replace(cfg, R=5.0, n_r=33)
    assert_grid_of_keys(wider)
    assert (wider.grid.R, wider.grid.n_r) == (5.0, 33)
    # the grid is derived: neither in repr nor in equality
    assert "grid" not in repr(cfg)
    assert replace(cfg, t_end=0.5) == replace(cfg, t_end=0.5)
    assert replace(cfg, t_end=0.5).grid is not cfg.grid


_TEXT = st.text(
    st.characters(codec="ascii", exclude_characters="\n\r\x0b\x0c\x1c\x1d\x1e#"),
    min_size=1,
    max_size=12,
).filter(str.strip)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]),
    st.floats(0.01, 3.0),  # values a run could use, to reach the initial data
).map(repr)
_CHOICES = {
    key: f.metadata["allowed"]
    for key, f in SOLVER_KEYS.items()
    if isinstance(f.metadata["allowed"], tuple)
}


def _value_strategy(key, cast):
    if key in _CHOICES:
        value = st.sampled_from(_CHOICES[key])
    elif cast is int:
        value = st.integers(-3, 40).map(str)
    else:
        value = _FLOATS
    # free text one draw in ten, so that most draws get past the parser
    return st.integers(0, 9).flatmap(lambda i: _TEXT if i == 9 else value)


_DRAWN_KEYS = {
    key: _value_strategy(key, f.metadata["parser"])
    for key, f in SOLVER_KEYS.items()
    if not key.startswith("grid.")
}


@given(values=st.fixed_dictionaries({}, optional=_DRAWN_KEYS))
@settings(max_examples=300, deadline=None)
def test_config_to_initial_state_raises_only_config_error(values):
    text = "grid.r_min = 1\ngrid.R = 3\ngrid.L_z = 2\ngrid.n_r = 17\ngrid.n_z = 16\n"
    text += "".join(f"{key} = {val}\n" for key, val in values.items())
    try:
        cfg = SolverConfig.from_mapping(parse_config_text(text))
        with np.errstate(all="ignore"):
            state = fields.make_initial_data(EllipticSolver(cfg.grid), cfg)
    except ConfigError:
        return
    for name in fields.STATE_FIELDS:
        assert np.all(np.isfinite(getattr(state, name)))


def test_cmd_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "axicyl" in out
    # the subcommands it lists are the parser's
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert out.split("subcommands: ", 1)[1].strip().split(", ") == list(sub.choices)


def test_cmd_run_outputs(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    csv = (out / "diagnostics.csv").read_text().splitlines()
    assert csv[0] == HEADERS["diagnostics.csv"]
    assert len(csv) >= 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert str(out / "diagnostics.csv") in manifest["outputs"]
    assert (out / "final_state.axns").exists()


def test_cmd_run_manifest_reports_the_solver_counts(tmp_path):
    # RUN_CFG is k = 10 strang_cn steps.  The initial state's stream solve
    # and the first step's two spectra make 4 transforms; each step then
    # makes 10: two fields per half-diffusion, two spectra before the second
    # one, a field for the stage-0 and for the end-of-step stream solve from
    # the carried omega spectrum, and an rfft/irfft pair for stage 1's.
    # Rebuilding both spectra each step made 2 + 14 k.
    cfg = write_cfg(tmp_path, RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    k = 10
    perf = json.loads((out / "manifest.json").read_text())["extra"]["perf"]
    assert perf == {"heat_steps": 4 * k, "factorizations": 3, "transforms": 4 + 10 * k}


def test_cmd_run_t_end_zero_single_row(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG.replace("time.t_end = 0.05", "time.t_end = 0.0"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 2  # header + t = 0


def test_cmd_run_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, with_lines(RUN_CFG, "init.kind = random_modes\ninit.seed = 3"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()


def test_cmd_run_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, with_lines(RUN_CFG, "init.kind = random_modes\ninit.seed = 3"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b), "--seed", "4"]) == 0
    assert (out_a / "diagnostics.csv").read_bytes() != (out_b / "diagnostics.csv").read_bytes()


def test_cmd_run_bad_config_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "grid.n_r = nonsense\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    # the manifest is written even for pre-run failures
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "config error" in manifest["extra"]["error"]
    missing = tmp_path / "does_not_exist.cfg"
    assert main(["run", "--config", str(missing), "--out", str(out)]) == 2


def test_cmd_run_vanishing_grid_spacing_exits_2(tmp_path):
    # h_z^2 underflows to 0: a config error, found before any solver divides by it
    cfg = write_cfg(tmp_path, "grid.L_z = 1e-320\n")
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    error = json.loads((out / "manifest.json").read_text())["extra"]["error"]
    assert error.startswith("config error: grid.L_z too small")


@pytest.mark.parametrize(
    "command, text, code",
    [
        pytest.param("run", RUN_CFG, 0, id="run"),
        pytest.param(
            "semigroup",
            "semigroup.n = 97\nsemigroup.cases = L0:2:0\n",
            0,
            id="semigroup",
        ),
        pytest.param("run", "grid.n_r = nonsense\n", 2, id="config-error"),
    ],
)
def test_every_manifest_reports_the_process(tmp_path, command, text, code):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    process = json.loads((out / "manifest.json").read_text())["extra"]["process"]
    assert set(process) == {"minor_page_faults", "peak_rss_mb", "heap_thresholds_set"}
    assert process["minor_page_faults"] >= 0
    assert process["peak_rss_mb"] > 0
    assert process["heap_thresholds_set"] is cli._keep_freed_heap()


def test_cli_run_takes_no_page_faults_per_step(tmp_path):
    # with glibc's default thresholds a step hands the freed top of the heap
    # back to the kernel and faults it in again on the next step: 235-340
    # minor faults per step on this grid, under 1 with the thresholds raised
    if not cli._keep_freed_heap():
        pytest.skip("no mallopt in this libc")
    text = (ROOT / "perfbench" / "configs" / "coupled_swirl.cfg").read_text()
    env = dict(os.environ, PYTHONPATH=str(Path(axicyl.__file__).resolve().parents[1]))

    def faults(t_end):  # 0.025 is 20 steps, 0.075 is 60
        cfg = write_cfg(tmp_path, text.replace("time.t_end = 0.2", f"time.t_end = {t_end}"))
        argv = [sys.executable, "-m", "axicyl.cli", "run", "--config", str(cfg)]
        argv += ["--out", str(tmp_path / str(t_end))]
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run(argv, env=env, check=True, timeout=120)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    per_step = (faults(0.075) - faults(0.025)) / 40
    assert per_step < 20


def test_cmd_run_overflowing_swirl_bound_halts_as_blowup(tmp_path):
    # E_kin and sup|Gamma_0|^2 overflow a float: the budget ledger opens
    # with E_kin and the (1.11) bound inf, and the run halts at t = 0, with
    # t_end = 0 too, its t = 0 row and checkpoint written
    for t_end in ("0.01", "0"):
        text = SMALL_GRID + f"time.dt = 0.005\ntime.t_end = {t_end}\ninit.amplitude = 1e300\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / f"out_{t_end}"
        with warnings.catch_warnings():  # the overflow halts the run, without a warning
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "halted_blowup"
        assert manifest["extra"]["error"] == (
            "numerical halt: the budget ledger opens non-finite at t = 0: "
            "E_kin = inf, E_bound_1_11 = inf"
        )
        with open(out / "diagnostics.csv", newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert (float(row["t"]), row["E_kin"], row["E_bound_1_11"]) == (0.0, "inf", "inf")
        assert float(row["sup_Gamma"]) > 1e299
        assert fields.checkpoint_load(out / "final_state.axns").t == 0.0


@pytest.mark.parametrize(
    "lines, code, saved",
    [
        ("", 0, True),
        ("run.blowup_threshold = 0.1\n", 3, True),  # sup|Gamma| = 0.5 halts the first step
    ],
)
def test_cmd_run_writes_the_checkpoint_of_its_last_state(lines, code, saved, tmp_path):
    # the command, not the run loop, saves the final state, after the CSV
    cfg = write_cfg(tmp_path, RUN_CFG + lines)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == ("completed" if code == 0 else "halted_blowup")
    names = [str(out / "diagnostics.csv")] + [str(out / "final_state.axns")] * saved
    assert manifest["outputs"] == names
    assert (out / "final_state.axns").exists() == saved
    if saved:
        with open(out / "diagnostics.csv", newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        assert fields.checkpoint_load(out / "final_state.axns").t == float(last["t"])


@pytest.mark.parametrize("command", ["run", "mms"])
def test_negative_seed_exits_2_naming_the_option(command, tmp_path):
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--seed", "-1"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["outputs"] == []
    assert manifest["extra"]["error"] == "config error: --seed must be >= 0, got -1"


def test_cmd_run_blowup_exit_and_manifest(tmp_path):
    lines = "init.amplitude = 1e9\ninit.omega_amplitude = 1e9\nrun.blowup_threshold = 1e3"
    text = with_lines(RUN_CFG, lines)
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "halted_blowup"
    # the step the CFL bound of these velocities allows is under 1e-9
    assert manifest["extra"]["error"].startswith("numerical halt: dt = 5.000e-03 exceeds cfl")


def _large_swirl_cfg(tmp_path, name, **keys):
    """configs/smoke_large_swirl.cfg at 33x32 with the given keys replaced."""
    mapping = load_config(ROOT / "configs" / "smoke_large_swirl.cfg")
    mapping = {**mapping, "grid.n_r": "33", "grid.n_z": "32", **keys}
    return write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in mapping.items()), name)


def test_cmd_run_halted_on_the_cfl_bound_keeps_its_records_and_checkpoint(tmp_path):
    # a step of 0.5 passes the CFL check at t = 0 (cfl * bound 0.930) and
    # fails it at t = 0.5 (0.201): the run halts there, and writes its two
    # rows and the checkpoint of the state it stopped at, which a run that
    # ends at t = 0.5 completes with
    steps = {"time.dt": "0.5", "time.output_interval": "0.5"}
    out, done = tmp_path / "out", tmp_path / "done"
    halting = _large_swirl_cfg(tmp_path, "halting.cfg", **steps)
    assert main(["run", "--config", str(halting), "--out", str(out)]) == 3
    complete = _large_swirl_cfg(tmp_path, "complete.cfg", **steps, **{"time.t_end": "0.5"})
    assert main(["run", "--config", str(complete), "--out", str(done)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "halted_blowup"
    assert manifest["outputs"] == [str(out / "diagnostics.csv"), str(out / "final_state.axns")]
    error = manifest["extra"]["error"]
    assert error.startswith("numerical halt: dt = 5.000e-01 exceeds cfl * bound = ")
    assert error.endswith(" (strang_cn)")
    assert (out / "diagnostics.csv").read_bytes() == (done / "diagnostics.csv").read_bytes()
    with open(out / "diagnostics.csv", newline="") as fh:
        assert [float(row["t"]) for row in csv.DictReader(fh)] == [0.0, 0.5]
    final, ref = (fields.checkpoint_load(d / "final_state.axns") for d in (out, done))
    assert final.t == ref.t == 0.5
    for name in ("Gamma", "omega", "ur", "uz"):
        assert np.array_equal(getattr(final, name), getattr(ref, name)), name


@pytest.mark.parametrize("name", ["deviation_5_3", "boundary_leakage"])
def test_cmd_run_invalid_diagnostic_of_a_finite_state_still_warns(name, tmp_path, monkeypatch):
    # a diagnostic ignores overflow only: a defect that makes nan of finite
    # numbers (here inf - inf in the recorded (5.3) deviation, or in the
    # leakage sampled after each step) still raises under -W error
    def invalid(*args):
        return float(np.subtract(np.full(1, np.inf), np.inf)[0])

    monkeypatch.setattr(evolution, name, invalid)
    cfg = write_cfg(tmp_path, RUN_CFG)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="invalid value"):
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_cmd_run_samples_every_state_once(tmp_path, monkeypatch, ledger_calls):
    # the budget ledger samples the initial state and the state after each step
    steps = []
    step = evolution.Stepper.step

    def counted(self, dt):
        steps.append(dt)
        step(self, dt)

    monkeypatch.setattr(evolution.Stepper, "step", counted)
    cfg = write_cfg(tmp_path, RUN_CFG)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(steps) == 10
    assert ledger_calls == {"dissipation_sample": 11, "boundary_leakage": 11}


def test_cmd_mms_single_level_empty_order(tmp_path):
    cfg = write_cfg(tmp_path, "mms.levels = 1\nmms.n_base = 16\nmms.t_end = 0.02\n")
    out = tmp_path / "out"
    assert main(["mms", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "mms_orders.csv").read_text().splitlines()
    assert rows[0] == HEADERS["mms_orders.csv"]
    assert len(rows) == 2
    assert rows[1].endswith(",")  # empty observed_order column


def test_cmd_mms_zero_error_exits_2_naming_t_end(tmp_path):
    # at t_end = 1e-20 both levels reproduce the exact fields to the bit:
    # log2(0 / 0) has no order to observe, and the ratio raised
    # ZeroDivisionError (exit 1, with a traceback)
    cfg = write_cfg(tmp_path, "mms.levels = 2\nmms.n_base = 8\nmms.t_end = 1e-20\n")
    out = tmp_path / "out"
    assert main(["mms", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    error = manifest["extra"]["error"]
    assert error.startswith("config error: mms.t_end = 1e-20: error 0.0 at level 1 (n = 16)")
    assert error.endswith("no order can be observed")
    assert manifest["outputs"] == []


def test_cmd_mms_overflowing_step_count_exits_2_naming_t_end(tmp_path):
    # t_end / dt overflows at level 0, and int(round(inf)) raised OverflowError
    # (exit 1, with a traceback)
    cfg = write_cfg(tmp_path, "mms.levels = 1\nmms.n_base = 8\nmms.t_end = 1e308\n")
    out = tmp_path / "out"
    assert main(["mms", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["extra"]["error"] == (
        "config error: mms.t_end = 1e+308: inf steps at level 0 (n = 8): "
        "no order can be observed"
    )
    assert manifest["outputs"] == []


def test_cmd_mms_bad_levels_keeps_config_echo(tmp_path):
    cfg = write_cfg(tmp_path, "mms.levels = 0\n")
    out = tmp_path / "out"
    assert main(["mms", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["config"] == {"mms.levels": "0"}
    assert "mms.levels" in manifest["extra"]["error"]


@pytest.mark.parametrize(
    "command,line",
    [
        ("mms", "mms.levels = abc"),
        ("mms", "mms.n_base = 8.5"),
        ("mms", "mms.t_end = soon"),
        ("semigroup", "semigroup.n = abc"),
        ("semigroup", "semigroup.dt = abc"),
        ("semigroup", "semigroup.cases = L9:2:0"),
        ("semigroup", "semigroup.cases = L1:2"),
        ("semigroup", "semigroup.cases = L1:abc:0"),
        ("semigroup", "semigroup.cases = L1:2:5"),
        ("picard", "picard.t_end = abc"),
        ("picard", "picard.j_max = abc"),
        ("picard", "picard.p = abc"),
        ("picard", "picard.dt = abc"),
        ("inequalities", "ineq.samples = abc"),
        ("inequalities", "ineq.q = abc"),
        ("inequalities", "ineq.p = abc"),
        ("sweep-eps", "sweep.eps = 1,abc"),
    ],
)
def test_malformed_experiment_key_exits_2(tmp_path, command, line):
    cfg = write_cfg(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert "config error" in manifest["extra"]["error"]


def test_the_stream_operator_is_not_a_semigroup_case(tmp_path):
    # the stream operator is a row of the operator table beside L0, L1 and
    # L0', but it generates no heat semigroup of the paper
    assert "stream" in OPERATORS and "stream" not in HEAT_OPERATORS
    assert len(DEFAULT_SEMIGROUP_CASES) == 12
    assert {op for op, _, _ in DEFAULT_SEMIGROUP_CASES} == set(HEAT_OPERATORS)
    cfg = write_cfg(tmp_path, "semigroup.cases = stream:2:0\n")
    out = tmp_path / "out"
    assert main(["semigroup", "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert "stream:2:0" in manifest["extra"]["error"]


@pytest.mark.parametrize(
    "command, line",
    [
        ("picard", "picard.j_max = 1"),
        ("picard", "picard.p = 2"),
        ("picard", "picard.dt = 0"),
        ("semigroup", "semigroup.n = 3"),
        ("semigroup", "semigroup.n = 9"),  # parses, but leaves no decay-fit window
        ("mms", "mms.n_base = 0"),
        ("mms", "mms.n_base = 2"),
        ("inequalities", "ineq.samples = 0"),
    ],
)
def test_out_of_range_experiment_key_exits_2(tmp_path, command, line):
    cfg = write_cfg(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert "config error" in manifest["extra"]["error"]


SMALL_GRID = "grid.n_r = 17\ngrid.n_z = 16\n"
SMALL_RUNS = {
    "run": SMALL_GRID + "time.dt = 0.01\ntime.t_end = 0\n",
    "picard": SMALL_GRID + "picard.t_end = 0.01\npicard.dt = 0.01\npicard.j_max = 2\n",
    "sweep-eps": SMALL_GRID + "time.dt = 0.01\ntime.t_end = 0\nsweep.eps = 1\n",
    "inequalities": SMALL_GRID + "ineq.samples = 2\n",
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
@pytest.mark.parametrize(
    "line",
    ["grid.n_r = 3", "grid.n_z = 2", "grid.R = 0.5", "grid.r_min = 0", "grid.L_z = -1",
     "grid.r_min = nan", "grid.r_min = 1e-200", "grid.R = 1e300", "grid.L_z = 1e300",
     # non-finite values and initial data that cannot be built on the grid
     "init.amplitude = nan", "init.omega_amplitude = inf", "time.dt = nan",
     "time.output_interval = nan", "run.blowup_threshold = nan", "init.n_modes = 0",
     "init.seed = -1", "init.r_lo = 5\ninit.r_hi = 6", "init.z_lo = 1\ninit.z_hi = 0.5",
     # outside the allowed values of SOLVER_KEYS
     "time.cfl = 2", "time.dt = -1", "time.t_end = -1", "time.output_interval = 0",
     "scheme = rk4", "init.kind = vortex",
     # a key no command reads
     "output.checkpoint = every"],
)
def test_out_of_range_grid_key_exits_2(tmp_path, command, line):
    cfg = write_cfg(tmp_path, with_lines(SMALL_RUNS[command], line))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["extra"]["error"].startswith("config error: " + line.split(" =")[0] + " ")


@pytest.mark.parametrize("command", ["run", "sweep-eps"])
@pytest.mark.parametrize("line", ["", "time.dt = auto\n"], ids=["absent", "auto"])
def test_stepping_command_without_a_step_exits_2(tmp_path, monkeypatch, command, line):
    # run and sweep-eps step with time.dt, which has no default and no
    # spelling but a number: the command exits 2 naming it before any step.
    # A sweep must not start: its runs would record the error and exit 0
    def step(self, dt):
        raise AssertionError("stepped")

    monkeypatch.setattr(evolution.Stepper, "step", step)
    text = SMALL_RUNS[command].replace("time.dt = 0.01\n", line)
    cfg = write_cfg(tmp_path, text.replace("time.t_end = 0\n", "time.t_end = 0.02\n"))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["outputs"] == []
    error = manifest["extra"]["error"]
    assert error.startswith("config error: ") and "time.dt" in error


@pytest.mark.parametrize(
    "command, line",
    [pytest.param(c, "init.z_mode = 1" + "0" * 400, id=f"{c}-z_mode")
     for c in ("picard", "run", "sweep-eps")]
    + [pytest.param(c, "init.kind = random_modes\ninit.n_modes = 1000000000", id=f"{c}-n_modes")
       for c in ("picard", "run", "sweep-eps")]
    + [pytest.param("inequalities", "init.n_modes = 1000000000", id="inequalities-n_modes")],
)
def test_mode_past_nyquist_exits_2_before_building_data(tmp_path, monkeypatch, command, line):
    # a 401-digit z mode overflows a float, and 10**9 modes would run a loop
    # of that length: both are refused before any field is built
    # (inequalities always draws random_modes, so it reads neither init.kind
    # nor init.z_mode)
    def build(*args, **kwargs):
        raise AssertionError("initial data built")

    monkeypatch.setattr(fields, "bump_profile", build)
    cfg = write_cfg(tmp_path, SMALL_RUNS[command] + line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    error = json.loads((out / "manifest.json").read_text())["extra"]["error"]
    key = line.splitlines()[-1].split(" =")[0]
    assert error.startswith(f"config error: {key}: must not exceed the Nyquist index n_z // 2 = 8")


@pytest.mark.parametrize(
    "eps, names", [("0", "grid.r_min"), ("-0.5", "grid.r_min"), ("3", "grid.R"), ("nan", "")]
)
def test_sweep_eps_without_a_grid_exits_2(tmp_path, eps, names):
    # every value is checked before any run starts; before, such a value
    # was a run recorded as failed and the sweep exited 0
    cfg = write_cfg(tmp_path, SWEEP_CFG.replace("sweep.eps = 1,0.5", f"sweep.eps = 1,{eps}"))
    out = tmp_path / "out"
    assert main(["sweep-eps", "--config", str(cfg), "--out", str(out)]) == 2
    error = json.loads((out / "manifest.json").read_text())["extra"]["error"]
    assert error.startswith(f"config error: sweep.eps = {float(eps)}: {names}")
    assert not (out / "eps_sweep.csv").exists()


def test_sweep_eps_data_below_one_exits_2(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG.replace("init.r_lo = 1.3", "init.r_lo = 0.9"))
    out = tmp_path / "out"
    assert main(["sweep-eps", "--config", str(cfg), "--out", str(out)]) == 2
    assert "init.r_lo" in json.loads((out / "manifest.json").read_text())["extra"]["error"]


@pytest.mark.parametrize(
    "command, line",
    [
        ("run", "grid.n_rr = 9"),
        ("mms", "grid.n_r = 33"),
        ("semigroup", "semigroup.m = 97"),
        ("picard", "sweep.eps = 1"),
        ("sweep-eps", "picard.p = 6"),
        ("inequalities", "ineq.r = 2"),
        # the two scheme keys before the single scheme switch
        ("run", "scheme.advection = upwind1"),
        ("picard", "scheme.diffusion = explicit"),
        # solver keys a command ignores: picard steps with picard.dt,
        # inequalities steps nothing
        ("picard", "time.dt = 0.5"),
        ("inequalities", "scheme = monotone"),
        ("inequalities", "init.kind = swirl_bump"),
        # settings no command reads: run always saves its final state, and
        # the commutation ladder always steps to t = 0.05
        ("run", "output.checkpoint = final"),
        ("sweep-eps", "output.checkpoint = none"),
        ("semigroup", "semigroup.commutation_t = 0.05"),
    ],
)
def test_unknown_config_key_exits_2(tmp_path, command, line):
    cfg = write_cfg(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert line.split(" =")[0] in manifest["extra"]["error"]


FLOAT_KEYS = [
    (name, key, value)
    for name, command in cli.COMMANDS.items()
    for key, (parse, default, _) in command.experiment_keys.items()
    if isinstance(default, float)
    for value in ("nan", "inf", "-inf")
    if not (value == "inf" and parse is cli._exponent)  # the exponent infinity
]


@pytest.mark.parametrize("command, key, value", FLOAT_KEYS)
def test_non_finite_experiment_value_exits_2_naming_the_key(tmp_path, command, key, value):
    cfg = write_cfg(tmp_path, f"{key} = {value}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    error = json.loads((out / "manifest.json").read_text())["extra"]["error"]
    assert error.startswith(f"config error: bad value for {key}: ")


def test_readme_config_table_names_every_key():
    # the keys column of the README's "Config keys" table, one row per group
    text = (ROOT / "README.md").read_text()
    table = text.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[2] for line in table.splitlines()[2:]]
    listed = [key.strip(" `") for row in rows for key in row.split(",")]
    assert sorted(listed) == sorted(set().union(*(c.config_keys for c in cli.COMMANDS.values())))


def test_readme_csv_column_lists_are_the_row_types_fields():
    # the README's `run` CSV columns section and its eps_sweep.csv list
    text = (ROOT / "README.md").read_text()

    def listed(block):
        return [name.strip(" `\n") for name in block.split(",")]

    run = text.split("### `run` CSV columns", 1)[1].split("\n\n", 2)[1]
    assert listed(run) == [f.name for f in dataclasses.fields(DiagnosticsRecord)]
    eps = text.split("`diagnostics.EpsSummary` as its columns: ", 1)[1].split("`.", 1)[0]
    assert listed(eps) == [f.name for f in dataclasses.fields(EpsSummary)]


def test_bundled_configs_pass_the_key_check():
    experiments = runpy.run_path(str(ROOT / "scripts" / "run_all_experiments.py"))["EXPERIMENTS"]
    perfbench = {"coupled_swirl": "run", "mms_ladder": "mms", "semigroup_heat": "semigroup"}
    assert {p.stem for p in (ROOT / "perfbench" / "configs").glob("*.cfg")} == set(perfbench)
    pairs = [(command, ROOT / "configs" / name) for command, name in experiments]
    pairs += [
        (command, ROOT / "perfbench" / "configs" / f"{stem}.cfg")
        for stem, command in perfbench.items()
    ]
    for command, path in pairs:
        assert set(load_config(path)) <= cli.COMMANDS[command].config_keys, path


def test_run_all_experiments_names_each_bundled_config_once():
    # the acceptance gate runs the configs this list names, and only those
    experiments = runpy.run_path(str(ROOT / "scripts" / "run_all_experiments.py"))["EXPERIMENTS"]
    names = [name for _, name in experiments]
    assert sorted(names) == sorted(p.name for p in (ROOT / "configs").glob("*.cfg"))


def test_cli_import_leaves_scipy_out():
    # importing scipy.linalg alone about doubles a bare process's resident memory
    src = str(Path(axicyl.__file__).resolve().parents[1])
    code = "import sys, axicyl.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


def test_package_imports_only_numpy_and_the_standard_library():
    # the one declared dependency (pyproject.toml) is numpy; scipy or sympy
    # may be installed where the tests run, but not where the package does
    allowed = set(sys.stdlib_module_names) | {"numpy", "axicyl"}
    found = {}
    for path in sorted((ROOT / "src" / "axicyl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in allowed:
                    found.setdefault(path.name, []).append(name)
    assert found == {}


def test_cli_runs_mms_without_sympy(tmp_path):
    # the manufactured solution is a committed table; sympy only checks it
    src = str(Path(axicyl.__file__).resolve().parents[1])
    cfg = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "mms_ladder.cfg"
    code = (
        "import sys\n"
        "sys.modules['sympy'] = None\n"  # importing sympy now raises ImportError
        "import axicyl.cli\n"
        f"code = axicyl.cli.main(['mms', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}])\n"
        "del sys.modules['sympy']\n"
        "sys.exit(code or any(m.split('.')[0] == 'sympy' for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
    assert (tmp_path / "mms_orders.csv").exists()


def test_cmd_inequalities_rejects_bad_sigma(tmp_path):
    cfg = write_cfg(tmp_path, "ineq.q = 1.0\nineq.p = 6.0\nineq.samples = 4\n")
    assert main(["inequalities", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_cmd_inequalities_small(tmp_path):
    # resolution and sample smoothness such that the 5.3-identity deviation
    # sits inside its scheme-order tolerance
    text = (
        "grid.n_r = 97\ngrid.n_z = 64\ngrid.R = 3.0\nineq.samples = 6\n"
        "init.r_lo = 1.3\ninit.r_hi = 2.4\ninit.n_modes = 2\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["inequalities", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "inequalities.csv").read_text().splitlines()
    assert rows[0] == HEADERS["inequalities.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extra"]["total_violations"] == 0
    # one solver and one pass: one stream solve of two transforms for each of
    # the 6 states, which the two batches share (three batches built apart
    # made 2 * (6 + 3 + 3))
    perf = manifest["extra"]["perf"]
    assert perf == {"heat_steps": 0, "factorizations": 1, "transforms": 2 * 6}


def _three_batch_rows(cfg, n, q, p):
    """inequalities.csv's rows as three batches built apart give them: all
    n samples, the first half and the next half (half = max(1, n // 2)),
    each drawing its own states and fields (state seeds from seed0, B1 and
    B2 fields from seed0 + 7000 and seed0 + 9000)."""
    solver = EllipticSolver(cfg.grid)

    def batch(seed0, count):
        ratios = {}
        for seed in range(seed0, seed0 + count):
            state = make_initial_data(solver, replace(cfg, init_kind="random_modes", seed=seed))
            for key, val in state_inequality_ratios(state).items():
                ratios.setdefault(key, []).append(val)
        for name, seed, full in (("B1", seed0 + 7000, False), ("B2", seed0 + 9000, True)):
            fields_ = list(random_scalar_samples(cfg.grid, count, seed, vanish_at_wall=not full))
            ratios[name] = [gagliardo_nirenberg_ratio(cfg.grid, f, q, p, full) for f in fields_]
        return {k: [v for v in vals if not math.isnan(v)] for k, vals in ratios.items()}

    half = max(1, n // 2)
    full, first, second = batch(cfg.seed, n), batch(cfg.seed, half), batch(cfg.seed + half, half)
    rows = []
    for key, vals in sorted(full.items()):
        if not vals:
            continue
        tol = TOLERANCES.get(key, 1e-8 if key in CONSTANT_FREE else math.inf)
        if key in IDENTITIES:
            violations = sum(abs(v - 1.0) > tol for v in vals)
        else:
            violations = sum(v > 1.0 + tol for v in vals) if key in CONSTANT_FREE else 0
        c1, c2 = (max(b[key]) if b.get(key) else math.nan for b in (first, second))
        row = (key, len(vals), violations, max(vals), tol, int(key in CONSTANT_FREE), c1, c2)
        rows.append(",".join(map(cli._fmt, row)))
    return rows


@pytest.mark.parametrize("samples", [1, 2, 5, 8])
def test_cmd_inequalities_one_pass_writes_the_three_batch_rows(tmp_path, samples):
    # one pass builds each state and field once: batch 1 is the first half of
    # the reported samples, batch 2 the states from seed0 + half with fields
    # drawn from seed0 + half + 7000 and + 9000 (at 1 sample, state seed0 + 1,
    # outside the reported one)
    text = "grid.n_r = 17\ngrid.n_z = 16\ngrid.R = 4.0\ninit.r_lo = 1.3\ninit.r_hi = 3.2\n"
    text += f"init.seed = 3\nineq.samples = {samples}\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["inequalities", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "inequalities.csv").read_text().splitlines()
    assert rows[0] == HEADERS["inequalities.csv"]
    reference = SolverConfig.from_mapping(parse_config_text(text))
    assert rows[1:] == _three_batch_rows(reference, samples, 2.0, 4.0)


def test_cmd_inequalities_builds_and_measures_each_sample_once(tmp_path, monkeypatch):
    # configs/inequalities.cfg: 200 states, and 200 + 100 fields of each of
    # B1 and B2 (three batches built apart made 400 states and 800 fields)
    calls = Counter()
    for name in ("make_initial_data", "state_inequality_ratios", "gagliardo_nirenberg_ratio"):
        real = getattr(diagnostics, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(diagnostics, name, counted)
    cfg = ROOT / "configs" / "inequalities.cfg"
    assert main(["inequalities", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert calls == {
        "make_initial_data": 200, "state_inequality_ratios": 200, "gagliardo_nirenberg_ratio": 600
    }


def test_cmd_sweep_eps_small(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep-eps", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "eps_sweep.csv").read_text().splitlines()
    assert rows[0] == HEADERS["eps_sweep.csv"]
    assert len(rows) == 3
    assert rows[1].split(",")[1] == "completed"


@pytest.mark.parametrize("amplitude", ["1e160", "1e300"])
def test_cmd_sweep_eps_completes_a_run_whose_budget_powers_overflow(tmp_path, amplitude):
    # the budget checks square the t = 0 record's norms: a float power past
    # the float range raised OverflowError, and the run read failed.  E_kin
    # overflows too, so the run halts at t = 0 (run_simulation), and its
    # one record is summarized all the same, with the halt's reason
    cfg = write_cfg(tmp_path, SMALL_RUNS["sweep-eps"] + f"init.amplitude = {amplitude}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep-eps", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "eps_sweep.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    halt = "the budget ledger opens non-finite at t = 0: E_kin = inf, E_bound_1_11 = inf"
    assert (row["status"], row["error"]) == ("halted_blowup", halt)
    assert float(row["sup_h1_proxy"]) == math.inf
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extra"]["failures"] == {"1": halt}


def test_cmd_inequalities_counts_past_overflow_as_at_unit_amplitude(tmp_path):
    # the ratios are homogeneous of degree 0 in the fields: a state whose
    # integrals of squares overflow keeps every sample and every verdict
    def counts(amplitude):
        cfg = write_cfg(tmp_path, SMALL_RUNS["inequalities"] + f"init.amplitude = {amplitude}\n")
        out = tmp_path / f"out_{amplitude}"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["inequalities", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "inequalities.csv", newline="") as fh:
            samples = {row["inequality"]: row["n_samples"] for row in csv.DictReader(fh)}
        manifest = json.loads((out / "manifest.json").read_text())
        return samples, manifest["extra"]["total_violations"]

    unit = counts(1.0)
    assert counts(1e160) == unit
    assert counts(1e300) == unit


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
@pytest.mark.parametrize("argv, seed", [([], 5), (["--seed", "7"], 7)])
def test_manifest_records_the_seed_the_command_used(tmp_path, monkeypatch, command, argv, seed):
    # --seed is init.seed of the SolverConfig the command's body gets; the
    # manifest records that seed, and its config echo is the file's own
    seeds = []
    entry = cli.COMMANDS[command]

    def body(cfg, s, ctx):
        seeds.append(cfg.seed)
        return entry.body(cfg, s, ctx)

    monkeypatch.setitem(cli.COMMANDS, command, entry._replace(body=body))
    text = SMALL_RUNS[command] + "init.seed = 5\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *argv]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert seeds == [seed]
    assert manifest["seed"] == seed
    assert manifest["config"] == parse_config_text(text)


@pytest.mark.parametrize(
    "command, text",
    [
        ("mms", "mms.levels = 1\nmms.n_base = 16\nmms.t_end = 0.02\n"),
        ("semigroup", "semigroup.n = 97\nsemigroup.dt = 0.01\nsemigroup.cases = L1:inf:0\n"),
    ],
)
def test_commands_without_a_seed_record_none_under_seed_flag(tmp_path, command, text):
    # mms and semigroup read no seed, so --seed does not reach their manifest
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] is None


def test_cmd_sweep_eps_records_what_halted_a_run(tmp_path):
    # a step of 0.92 passes the CFL check at eps = 1 (cfl * bound 0.930 at
    # t = 0) and fails it at eps = 0.5 (0.912): that run halts at t = 0, the
    # sweep goes on, and the halt's reason is in its row and the manifest
    cfg = _large_swirl_cfg(tmp_path, "sweep.cfg", **{
        "time.dt": "0.92", "time.t_end": "0.92", "time.output_interval": "0.92",
        "sweep.eps": "1, 0.5",
    })
    out = tmp_path / "out"
    assert main(["sweep-eps", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "eps_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["completed", "halted_blowup"]
    assert rows[0]["error"] == ""
    halt = rows[1]["error"]
    assert halt.startswith("dt = 9.200e-01 exceeds cfl * bound = ")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["extra"]["failures"] == {"0.5": halt}


def test_cmd_sweep_eps_unexpected_error_in_a_run_exits_1(tmp_path, monkeypatch):
    # an exception that is not a numerical halt ends the sweep as it ends
    # every other command: it propagates once the manifest names it
    real = evolution.run_simulation

    def failing_at_half(cfg, *args, **kwargs):
        if cfg.r_min == 0.5:
            raise RuntimeError("boom at eps 0.5")
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(evolution, "run_simulation", failing_at_half)
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="boom at eps 0.5"):
        main(["sweep-eps", "--config", str(cfg), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["outputs"] == []
    assert manifest["extra"]["error"] == "unexpected error: RuntimeError: boom at eps 0.5"


def test_cmd_picard_small(tmp_path):
    text = (
        "grid.r_min = 1.0\ngrid.R = 3.0\ngrid.L_z = 2.0\ngrid.n_r = 17\ngrid.n_z = 16\n"
        "init.kind = swirl_bump\ninit.amplitude = 0.2\ninit.omega_amplitude = 0.1\n"
        "init.r_lo = 1.3\ninit.r_hi = 2.4\n"
        "picard.t_end = 0.04\npicard.j_max = 3\npicard.p = 6.0\npicard.dt = 0.01\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "picard.csv").read_text().splitlines()
    assert rows[0] == HEADERS["picard.csv"]
    assert len(rows) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extra"]["direct_match_l2"] < manifest["extra"]["direct_match_tolerance"]


def test_cmd_picard_halted_direct_run_exits_3(tmp_path):
    # the direct run halts after one step at this threshold; its distance
    # from the iterates (1.08 against a tolerance of 0.66) is not reported,
    # and the error says what halted it
    text = (
        "grid.r_min = 1.0\ngrid.R = 3.0\ngrid.L_z = 2.0\ngrid.n_r = 17\ngrid.n_z = 16\n"
        "init.kind = swirl_bump\ninit.amplitude = 2.0\ninit.omega_amplitude = 1.5\n"
        "init.r_lo = 1.25\ninit.r_hi = 2.5\nrun.blowup_threshold = 0.5\n"
        "picard.t_end = 0.04\npicard.j_max = 3\npicard.p = 6.0\npicard.dt = 0.004\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "halted_blowup"
    manifest["extra"].pop("process")  # the process's own numbers, not a result
    assert manifest["extra"] == {
        "error": "numerical halt: picard's direct run to t = 0.04 halted at t = 0.004: "
        "max(sup|Gamma|, sup|omega|) = 1.95684 exceeds run.blowup_threshold = 0.5 at t = 0.004"
    }


def test_cmd_picard_non_finite_iterate_exits_3(tmp_path):
    # configs/picard.cfg at 33x32 and amplitude 2000: an iterate overflows,
    # and the state its step builds ends the iteration as a numerical halt
    text = (
        "grid.r_min = 1.0\ngrid.R = 3.0\ngrid.L_z = 2.0\ngrid.n_r = 33\ngrid.n_z = 32\n"
        "init.kind = swirl_bump\ninit.amplitude = 2000\ninit.omega_amplitude = 2000\n"
        "init.r_lo = 1.25\ninit.r_hi = 2.5\n"
        "picard.t_end = 0.1\npicard.j_max = 3\npicard.p = 6.0\npicard.dt = 0.004\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    with warnings.catch_warnings():  # the overflow halts the iteration, without a warning
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "halted_blowup"
    error = manifest["extra"]["error"]
    assert error.startswith("numerical halt: non-finite fields at t = ")
    assert error.endswith("contains non-finite values")


def test_unexpected_error_propagates_once_the_manifest_names_it(tmp_path, monkeypatch):
    # an exception outside the four handled classes keeps its traceback
    # (exit 1), and the manifest records its type and message first
    def body(cfg, s, ctx):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.COMMANDS, "run", cli.COMMANDS["run"]._replace(body=body))
    cfg = write_cfg(tmp_path, RUN_CFG)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="boom"):
        main(["run", "--config", str(cfg), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["extra"]["error"] == "unexpected error: RuntimeError: boom"


def test_cmd_picard_iterates_with_the_configured_scheme(tmp_path):
    # strang_cn iterates miss a monotone direct run by 4.4e-04; on one
    # scheme the two agree to 1.2e-07 (dt under the monotone scheme's bound)
    text = (
        "grid.n_r = 33\ngrid.n_z = 32\nscheme = monotone\ntime.cfl = 0.9\n"
        "picard.t_end = 0.04\npicard.j_max = 3\npicard.dt = 0.0008\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["extra"]["direct_match_l2"] < 2e-5


@pytest.mark.parametrize("dt, step", [(0.03, 0.025), (1e300, 0.05)])
def test_cmd_picard_direct_run_takes_the_iterates_step(tmp_path, dt, step):
    # the iterates take round(T / dt) equal steps; the direct run and the
    # tolerance 10 (h_r^2 + step^2) ||u_0||_2 use that step too, so a dt
    # that does not divide T gives the outputs of the step itself
    text = SMALL_GRID + "init.amplitude = 0.2\npicard.t_end = 0.05\npicard.j_max = 2\n"
    outputs = []
    for value in (dt, step):
        cfg = write_cfg(tmp_path, text + f"picard.dt = {value!r}\n")
        out = tmp_path / f"out{value!r}"
        assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
        extra = json.loads((out / "manifest.json").read_text())["extra"]
        extra.pop("process")  # page faults differ from run to run
        outputs.append((extra, (out / "picard.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0]["direct_match_l2"] < outputs[0][0]["direct_match_tolerance"] < 1


@pytest.mark.parametrize(
    "t_end, dt",
    [
        (1e300, 1e-300),  # the ratio overflows to inf
        (1.0, 1.0 / (cli.PICARD_MAX_STEPS + 1)),  # finite, one step over the cap
    ],
)
def test_cmd_picard_step_count_over_the_cap_exits_2(tmp_path, monkeypatch, t_end, dt):
    # checked before the iteration, whose wall time grows with the step count
    calls = []
    monkeypatch.setattr(evolution, "picard_iterate", lambda *a, **kw: calls.append(a))
    text = SMALL_GRID + f"picard.t_end = {t_end!r}\npicard.dt = {dt!r}\npicard.j_max = 2\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 2
    assert calls == []
    error = json.loads((out / "manifest.json").read_text())["extra"]["error"]
    assert "picard.t_end" in error and "picard.dt" in error


def test_cmd_picard_starts_from_the_run_initial_state(tmp_path, monkeypatch):
    text = (
        "grid.n_r = 17\ngrid.n_z = 16\ninit.kind = random_modes\ninit.n_modes = 2\n"
        "init.seed = 3\ninit.amplitude = 0.2\ninit.r_lo = 1.3\ninit.r_hi = 2.4\n"
        "picard.t_end = 0.02\npicard.j_max = 2\npicard.dt = 0.01\n"
    )
    starts = []
    real = evolution.picard_iterate

    def spy(state0, **kw):
        starts.append(state0)
        return real(state0, **kw)

    monkeypatch.setattr(evolution, "picard_iterate", spy)
    cfg = write_cfg(tmp_path, text)
    assert main(["picard", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    run_cfg = SolverConfig.from_mapping(parse_config_text(text))
    start = run_config(replace(run_cfg, dt=0.01, t_end=0.0)).final_state
    np.testing.assert_array_equal(starts[0].Gamma, start.Gamma)
    np.testing.assert_array_equal(starts[0].omega, start.omega)


def test_cmd_picard_builds_one_solver(tmp_path, construction_counts):
    # the Picard iterates and the direct run share one solver: its stream
    # operator and two heat operators are each factored once, and the
    # manifest reports its counts.  Two iterates and the direct run take two
    # steps each, of four heat steps.  Transforms: 2 for the initial state's
    # stream solve; per iterate its first step's 2 spectra, then 7 a step
    # (four half-diffusion fields, two spectra, the end-of-step stream field:
    # the iterates' stages solve no stream), the last iterate's state at T
    # being the final state; the direct run 2 spectra and 10 a step
    # (test_cmd_run_manifest_reports_the_solver_counts)
    text = (
        "grid.n_r = 33\ngrid.n_z = 32\ninit.r_lo = 1.3\ninit.r_hi = 2.4\n"
        "picard.t_end = 0.02\npicard.j_max = 2\npicard.dt = 0.01\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    assert construction_counts == {"solvers": 1, "factorizations": 3}
    perf = json.loads((out / "manifest.json").read_text())["extra"]["perf"]
    transforms = 2 + 2 * (2 + 7 * 2) + (2 + 10 * 2)
    assert perf == {"heat_steps": 3 * 2 * 4, "factorizations": 3, "transforms": transforms}


def test_cmd_semigroup_tiny(tmp_path):
    text = "semigroup.n = 97\nsemigroup.dt = 0.01\nsemigroup.cases = L1:inf:0\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["semigroup", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "semigroup_fits.csv").read_text().splitlines()
    assert rows[0] == HEADERS["semigroup_fits.csv"]
    assert len(rows) == 2
    rows = (out / "commutation.csv").read_text().splitlines()
    assert rows[0] == HEADERS["commutation.csv"]
    # level 0 has no previous level to reduce from: an empty ratio
    assert len(rows) == 4 and rows[1].endswith(",")


def test_cmd_semigroup_counts_its_heat_steps_in_the_manifest(tmp_path, monkeypatch):
    # every Crank-Nicolson step goes through EllipticSolver.heat_step once;
    # count them by grid, as the benchmark's step counter does
    by_grid = Counter()
    heat_step = EllipticSolver.heat_step

    def counted(self, *args):
        by_grid[self.grid.shape] += 1
        return heat_step(self, *args)

    monkeypatch.setattr(EllipticSolver, "heat_step", counted)
    # the benchmark's config: one L1 evolution at 385 x 384, dt = 1/300
    cfg = ROOT / "perfbench" / "configs" / "semigroup_heat.cfg"
    out = tmp_path / "counted"
    assert main(["semigroup", "--config", str(cfg), "--out", str(out)]) == 0
    # the decay series runs to its last sample time (rho1/4)^2 = 1.5625; each
    # commutation level steps L0 and L1 to t = 0.05
    decay = round(1.5625 * 300)
    ladder = {(65, 64): 2 * 16, (129, 128): 2 * 32, (257, 256): 2 * 64}
    assert by_grid == {(385, 384): decay, **ladder}
    perf = json.loads((out / "manifest.json").read_text())["extra"]["perf"]
    assert perf["heat_steps"] == decay + sum(ladder.values()) == 693
    # the evolutions step in the radial eigenbasis: a factorization is one
    # eigenbasis, L1's, then L0's and L1's per level, each with the two-mode
    # tridiagonal factorization that checks its step's gains
    assert perf["factorizations"] == 2 * (1 + 2 * 3) == 14
    # a transform is one conversion of a field to or from its modes: the
    # decay series' modes and its 24 sample read-backs, then per level the
    # modes of both fields and both fields at t
    assert perf["transforms"] == 1 + 24 + 3 * 4 == 37

    # the counters only feed the manifest: with every increment dropped the
    # CSVs are the same bytes
    class Inert(dict):
        def __setitem__(self, key, value):
            pass

    init = EllipticSolver.__init__

    def uncounted(self, grid):
        init(self, grid)
        self.counts = Inert(self.counts)

    monkeypatch.setattr(EllipticSolver, "__init__", uncounted)
    bare = tmp_path / "bare"
    assert main(["semigroup", "--config", str(cfg), "--out", str(bare)]) == 0
    assert json.loads((bare / "manifest.json").read_text())["extra"]["perf"]["heat_steps"] == 0
    for name in ("semigroup_fits.csv", "commutation.csv"):
        assert (bare / name).read_bytes() == (out / name).read_bytes()


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("AXICYL_OUT", str(tmp_path / "envout"))
    cfg = write_cfg(tmp_path, RUN_CFG.replace("time.t_end = 0.05", "time.t_end = 0.0"))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "envout" / "diagnostics.csv").exists()
