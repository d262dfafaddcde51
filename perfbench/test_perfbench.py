"""Tests of the benchmark itself:  python3 -m pytest perfbench

The traced runs take about a minute in total.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run
from layers import _self_times, summarize
from speed import PROBE_REF_S, rescale
from workloads import WORKLOADS, check_coupled_swirl, check_mms_ladder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".perfbench_out"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, scratch):
    workload = WORKLOADS[name]
    deadline = time.monotonic() + 300
    runs = [run.execute(workload, 7, scratch / f"t{i}", True, deadline) for i in range(2)]
    assert all(e.ok for e in runs), [e.error for e in runs]
    counts = [run._counts(run.layer_metrics(e)[0]) for e in runs]
    assert counts[0] == counts[1]
    assert counts[0]["elliptic.tridiag_solve.calls"] > 0
    assert counts[0]["run.node_steps"] > 0
    assert runs[0].outputs == runs[1].outputs


def test_metric_names_match_benchmark_json():
    spans = [
        [0, "cli.main", 0.0, 1.0, None, 0, None],
        [1, "elliptic.tridiag_solve", 0.1, 0.2, 0, 0, [65, 127, 16]],
    ]
    layer, _ = summarize({"spans": spans, "counts": {}, "bytes": {}})
    extra = {"run.time_steps", "run.node_steps", "trace.wall_s", "trace.overhead_s"}
    assert set(layer) | extra == {m["name"] for m in SPEC["per_layer"]}
    e2e = {"wall_s", "setup_s", "node_steps_per_s", "peak_rss_mb", "verify_ratio"}
    assert e2e == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.unit_of(m["name"]) == m["unit"], m["name"]
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        (0, "sweep", 0.0, 10.0, None, 0, None),
        (1, "run", 1.0, 6.0, 0, 1, None),  # two concurrent children cover [1, 8]
        (2, "run", 2.0, 8.0, 0, 2, None),
        (3, "step", 2.0, 3.0, 1, 1, None),
    ]
    self_s = _self_times(spans)
    assert self_s[0] == pytest.approx(3.0)
    assert self_s[1] == pytest.approx(4.0)
    assert self_s[2] == pytest.approx(6.0)


def test_rescale_scales_each_stretch_by_its_probes_and_drops_probe_time():
    # probes of 1 ms at t = 1, 2, 3, 4; the first two at the reference speed,
    # the last two twice as slow; the run ends at t = 5
    fast, slow = PROBE_REF_S, 2 * PROBE_REF_S
    samples = [(1.0, 1.001, fast), (2.0, 2.001, fast), (3.0, 3.001, slow), (4.0, 4.001, slow)]
    to_2, to_5 = rescale(0.0, [2.0, 5.0], samples)
    assert to_2 == pytest.approx(1.0 + 0.999)
    # each stretch takes the median of the (up to) four probes around it:
    # [2, 3] sees fast, fast, slow, slow; [3, 4] fast, slow, slow; [4, 5] slow, slow
    assert to_5 == pytest.approx(1.999 + 0.999 / 1.5 + 0.999 / 2 + 0.999 / 2)


def _write(path: Path, header: list[str], rows: list[list]) -> None:
    path.write_text("\n".join(",".join(map(str, r)) for r in [header, *rows]) + "\n")


def test_checks_fail_on_bad_outputs(scratch):
    (scratch / "manifest.json").write_text(json.dumps({"status": "completed"}))
    _write(scratch / "mms_orders.csv", ["n", "observed_order"], [[32, ""], [64, 2.01], [128, 1.7]])
    bad = [c.name for c in check_mms_ladder(scratch) if not c.ok]
    assert bad == ["order at n=128"]
    cols = ["sup_Gamma", "E_kin", "budget_residual_1_5", "margin_1_6", "margin_1_7",
            "lhs_1_11", "E_bound_1_11"]
    _write(scratch / "diagnostics.csv", cols, [[5.0, 10.0, 0.0, 0.0, -1.0, 0.5, 1.0],
                                               [4.9, 9.0, 2e-3, -0.1, -1.0, 0.6, 1.0]])
    bad = [c.name for c in check_coupled_swirl(scratch) if not c.ok]
    assert bad == ["energy residual (1.5)"]


def test_refuses_to_run_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "coupled_swirl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
