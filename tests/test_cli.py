import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import axicyl
from axicyl import cli
from axicyl.cli import main
from axicyl.config import ConfigError, SolverConfig, parse_config_text
from axicyl.diagnostics import CSV_COLUMNS
from axicyl.evolution import run_simulation

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


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_text():
    m = parse_config_text("a.b = 1 # comment\n\n# full line\nc.d = x\n")
    assert m == {"a.b": "1", "c.d": "x"}
    with pytest.raises(ConfigError):
        parse_config_text("novalue\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = \n")


def test_solver_config_validation():
    with pytest.raises(ConfigError):
        SolverConfig(cfl=1.5)
    with pytest.raises(ConfigError):
        SolverConfig(advection="upwind7")
    with pytest.raises(ConfigError):
        SolverConfig.from_mapping({"grid.n_r": "many"})


def test_cmd_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "axicyl" in out


def test_cmd_run_outputs(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    csv = (out / "diagnostics.csv").read_text().splitlines()
    assert csv[0] == ",".join(CSV_COLUMNS)
    assert len(csv) >= 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert str(out / "diagnostics.csv") in manifest["outputs"]
    assert (out / "final_state.axns").exists()


def test_cmd_run_t_end_zero_single_row(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG.replace("time.t_end = 0.05", "time.t_end = 0.0"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "diagnostics.csv").read_text().splitlines()
    assert len(rows) == 2  # header + t = 0


def test_cmd_run_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG + "init.kind = random_modes\ninit.seed = 3\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()


def test_cmd_run_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path, RUN_CFG + "init.kind = random_modes\ninit.seed = 3\n")
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


def test_cmd_run_blowup_exit_and_manifest(tmp_path):
    text = RUN_CFG + "init.amplitude = 1e9\ninit.omega_amplitude = 1e9\nrun.blowup_threshold = 1e3\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "halted_blowup"


def test_cmd_mms_single_level_empty_order(tmp_path):
    cfg = write_cfg(tmp_path, "mms.levels = 1\nmms.n_base = 16\nmms.t_end = 0.02\n")
    out = tmp_path / "out"
    assert main(["mms", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "mms_orders.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].endswith(",")  # empty observed_order column


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
        ("semigroup", "semigroup.commutation_t = abc"),
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


@pytest.mark.parametrize(
    "command, line",
    [
        ("picard", "picard.j_max = 1"),
        ("picard", "picard.p = 2"),
        ("picard", "picard.dt = 0"),
        ("semigroup", "semigroup.n = 3"),
        ("semigroup", "semigroup.n = 9"),  # parses, but leaves no decay-fit window
        ("semigroup", "semigroup.commutation_t = 0"),
        ("mms", "mms.n_base = 0"),
        ("mms", "mms.n_base = 2"),
    ],
)
def test_out_of_range_experiment_key_exits_2(tmp_path, command, line):
    cfg = write_cfg(tmp_path, line + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert "config error" in manifest["extra"]["error"]


def test_cli_import_leaves_scipy_out():
    # importing scipy.linalg alone about doubles a bare process's resident memory
    src = str(Path(axicyl.__file__).resolve().parents[1])
    code = "import sys, axicyl.cli; sys.exit('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


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
    assert rows[0].startswith("inequality,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extra"]["total_violations"] == 0


def test_cmd_sweep_eps_small(tmp_path):
    text = (
        "grid.r_min = 1.0\ngrid.R = 3.0\ngrid.L_z = 2.0\ngrid.n_r = 33\ngrid.n_z = 32\n"
        "time.dt = 0.004\ntime.t_end = 0.02\ntime.output_interval = 0.01\n"
        "init.kind = no_swirl_bump\ninit.r_lo = 1.3\ninit.r_hi = 2.4\n"
        "sweep.eps = 1,0.5\noutput.checkpoint = none\n"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep-eps", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == 0
    rows = (out / "eps_sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[1] == "completed"


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
    assert len(rows) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extra"]["direct_match_l2"] < manifest["extra"]["direct_match_tolerance"]


def test_cmd_picard_starts_from_the_run_initial_state(tmp_path, monkeypatch):
    text = (
        "grid.n_r = 17\ngrid.n_z = 16\ninit.kind = random_modes\ninit.n_modes = 2\n"
        "init.seed = 3\ninit.amplitude = 0.2\ninit.r_lo = 1.3\ninit.r_hi = 2.4\n"
        "picard.t_end = 0.02\npicard.j_max = 2\npicard.dt = 0.01\n"
    )
    starts = []
    real = cli.picard_iterate

    def spy(solver, state0, **kw):
        starts.append(state0.copy())
        return real(solver, state0, **kw)

    monkeypatch.setattr(cli, "picard_iterate", spy)
    cfg = write_cfg(tmp_path, text)
    assert main(["picard", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    run_cfg = SolverConfig.from_mapping(parse_config_text(text))
    start = run_simulation(replace(run_cfg, t_end=0.0, checkpoint="none")).final_state
    np.testing.assert_array_equal(starts[0].Gamma.values, start.Gamma.values)
    np.testing.assert_array_equal(starts[0].omega.values, start.omega.values)


def test_cmd_semigroup_tiny(tmp_path):
    text = "semigroup.n = 97\nsemigroup.dt = 0.01\nsemigroup.cases = L1:inf:0\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["semigroup", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "semigroup_fits.csv").read_text().splitlines()
    assert len(rows) == 2
    assert (out / "commutation.csv").exists()


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("AXICYL_OUT", str(tmp_path / "envout"))
    cfg = write_cfg(tmp_path, RUN_CFG.replace("time.t_end = 0.05", "time.t_end = 0.0"))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "envout" / "diagnostics.csv").exists()
