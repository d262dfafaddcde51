#!/usr/bin/env python3
"""axicyl benchmark: end-to-end times per workload, per-layer split when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload (see workloads.py) is one
`axicyl` CLI command, run again and again in a fresh process, one after
another (a closed loop of one client), until the next run would end past
S seconds; at least three runs are made.  `--seed` is passed to the
program as its `--seed`; none of the three workloads' inputs depend on it
(bump data, manufactured fields and power spikes are deterministic).

Every run's outputs are checked against the acceptance thresholds
(workloads.py) and must be byte-identical to the first run's.  A run that
exits non-zero or fails a check counts as failed and its timings are
dropped.

--trace 0 reports the end-to-end metrics of untraced runs:
  wall_s            wall time of one run, process start to exit (median)
  setup_s           process start, imports included, to the first time step
  node_steps_per_s  sum over time steps of n_r * n_z, over (wall_s - setup_s)
  peak_rss_mb       peak resident memory of the run's process
  verify_ratio      worst measured / tolerance over the output checks
The three times are rescaled to the host's fast speed (speed.py): an
untraced run samples host speed as it goes, and each stretch of it is
scaled by how much slower than its reference a fixed probe ran there.
The raw times go to the `detail:` lines.
--trace 1 makes two traced runs (tracer.py), each after an untraced one,
requires their exact counts to agree, then untraced runs for the rest of
the time, and reports the per-layer metrics (layers.py) of the first
traced run plus the tracing overhead, traced minus untraced raw wall time.

Detail (sample counts, high percentiles, failures, checks, kernel table,
self-time ranking, environment) goes to stdout as `detail: {json}` lines;
the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from layers import summarize
from speed import rescale
from workloads import WORKLOADS, Check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3
RUN_BUDGET_S = 170.0  # the whole benchmark process must end within 180 s
COUNT_SUFFIXES = (".calls", ".bytes", "_computed", "_steps")


@dataclass
class Execution:
    """One run of the workload's command in a fresh process."""

    wall: float  # raw wall time
    setup: float | None  # raw; None when the run never reached a time step
    child: dict | None  # the child's report (child.py), with its trace if traced
    checks: list[Check]
    outputs: dict[str, str]  # output file name -> sha256
    error: str | None
    # (setup, wall) at the host's fast speed; None for a traced or failed run
    fast: tuple[float, float] | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(c.ok for c in self.checks)

    @property
    def node_rate(self) -> float | None:
        if self.fast is None:
            return None
        return self.child["node_steps"] / (self.fast[1] - self.fast[0])


def _outputs(out: Path) -> dict[str, str]:
    """Digest of every output file but the manifest (which holds timestamps)."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def execute(workload, seed: int, workdir: Path, trace: bool, deadline: float) -> Execution:
    workdir.mkdir()
    out = workdir / "out"
    result = workdir / "child.json"
    cmd = [
        sys.executable, str(HERE / "child.py"), str(result), workload.step, "1" if trace else "0",
        "--", workload.command, "--config", str(workload.config), "--out", str(out),
        "--seed", str(seed),
    ]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=max(deadline - start, 1.0),
        )
        error = None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr.decode()[-400:]}"
    except subprocess.TimeoutExpired:
        error = "timed out"
    wall = time.monotonic() - start
    if error is not None or not result.is_file():
        return Execution(wall, None, None, [], {}, error or "no child result")
    child = json.loads(result.read_text())
    if trace:
        child["trace"] = json.loads(Path(str(result) + ".spans").read_text())
    try:
        checks = workload.check(out)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return Execution(wall, None, child, [], {}, f"unreadable outputs: {exc!r}")
    if child["first_step"] is None:
        return Execution(wall, None, child, checks, {}, "no time step was taken")
    fast = None
    if child["speed_samples"]:
        fast = tuple(rescale(start, [child["first_step"], start + wall], child["speed_samples"]))
    return Execution(wall, child["first_step"] - start, child, checks, _outputs(out), None, fast)


def _loop(workload, seed, scratch, start, seconds, runs):
    """Append untraced runs until MIN_RUNS are made and the next would end past `seconds`."""
    while True:
        runs.append(execute(workload, seed, scratch / f"run{len(runs)}", False, start + RUN_BUDGET_S))
        elapsed = time.monotonic() - start
        typical = statistics.median(e.wall for e in runs)
        if len(runs) >= MIN_RUNS and elapsed + typical > seconds:
            return
        if elapsed + 2 * typical > RUN_BUDGET_S:
            return


def summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals) if vals else None, "p_high": None, "samples": values}
    if n >= 11:
        out["p_high"] = {"percentile": round(100.0 * (n - 10) / n, 1), "value": vals[n - 11]}
    return out


def environment(workload, runs: list[Execution]) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if level in ("2", "3"):
                caches[f"L{level}"] = (idx / "size").read_text().strip()
            elif kind == "Data":
                caches["L1d"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    versions = {}
    for pkg in ("numpy", "scipy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "axicyl").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        **versions,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": workload.name,
        "largest_array_bytes": max((e.child["largest_array_bytes"] for e in runs if e.child), default=0),
    }


def layer_metrics(e: Execution) -> tuple[dict, dict]:
    """Per-layer metrics and detail of one traced run."""
    metrics, detail = summarize(e.child["trace"])
    metrics["run.time_steps"] = e.child["time_steps"]
    metrics["run.node_steps"] = e.child["node_steps"]
    return metrics, detail


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def check_repro(runs: list[Execution]) -> None:
    """Every successful run must reproduce the first one's outputs byte for byte."""
    ref = next((e.outputs for e in runs if e.ok), None)
    for e in runs:
        if e.ok and e.outputs != ref:
            e.error = "outputs differ from the first run's"


def emit(detail_key: str, value) -> None:
    print(f"detail: {json.dumps({detail_key: value}, sort_keys=True)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "axicyl" / "cli.py").is_file():
        print(f"perfbench: no axicyl sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    start = time.monotonic()
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".perfbench_out"))
    traced: list[Execution] = []
    runs: list[Execution] = []
    try:
        if args.trace:  # alternate, so drift in host speed does not read as overhead
            for i in range(2):
                runs.append(execute(workload, args.seed, scratch / f"run{i}", False, start + RUN_BUDGET_S))
                traced.append(execute(workload, args.seed, scratch / f"traced{i}", True, start + RUN_BUDGET_S))
        _loop(workload, args.seed, scratch, start, args.seconds, runs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    everything = traced + runs
    check_repro(everything)
    layers = [layer_metrics(e) for e in traced if e.ok]
    if len(layers) == 2 and _counts(layers[0][0]) != _counts(layers[1][0]):
        traced[1].error = "exact counts differ from the first traced run's"
    failed = [e for e in everything if not e.ok]
    for e in failed:
        bad = [f"{c.name}: {c.measured:.6g} vs {c.tolerance:.6g}" for c in e.checks if not c.ok]
        print(f"perfbench: failed run: {e.error or '; '.join(bad)}", file=sys.stderr)

    good = [e for e in runs if e.ok] or runs  # all failed: report them, flagged incorrect
    e2e = {
        "wall_s": summary([e.fast[1] for e in good if e.fast]),
        "setup_s": summary([e.fast[0] for e in good if e.fast]),
        "node_steps_per_s": summary([e.node_rate for e in good if e.node_rate is not None]),
        "peak_rss_mb": summary([e.child["maxrss_kb"] / 1024.0 for e in good if e.child]),
    }
    raw_wall = summary([e.wall for e in good])
    raw = {"wall_s": raw_wall, "setup_s": summary([e.setup for e in good if e.setup is not None])}
    verify = max((c.ratio for e in everything for c in e.checks), default=math.inf)
    emit("checks", [
        {"name": c.name, "measured": c.measured, "tolerance": c.tolerance, "ratio": c.ratio}
        for c in everything[0].checks
    ])
    emit("end_to_end", e2e)
    emit("raw_times", raw)
    emit("runs", {"attempted": len(everything), "failed": len(failed),
                  "fail_frac": len(failed) / len(everything)})
    emit("environment", environment(workload, everything))

    if args.trace:
        values = {}
        if layers:
            values, detail = layers[0]
            emit("trace", detail)
            traced_wall = statistics.median(e.wall for e in traced if e.ok)
            values["trace.wall_s"] = traced_wall
            values["trace.overhead_s"] = traced_wall - raw_wall["median"]
    else:
        values = {k: v["median"] for k, v in e2e.items()}
        values["verify_ratio"] = verify
    metrics = {
        k: {"value": v, "unit": unit_of(k)}
        for k, v in values.items()
        if v is not None and math.isfinite(v)
    }
    correct = not failed and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(everything), "failed": len(failed),
                      "metrics": metrics}))
    return 0


E2E_UNITS = {"wall_s": "s", "setup_s": "s", "node_steps_per_s": "node_steps/s", "peak_rss_mb": "MB",
             "verify_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith((".calls", "_steps")):
        return "count"
    if name.endswith((".bytes", "bytes_computed")):
        return "B"
    if name.endswith("flops_computed"):
        return "flop"
    if ".us_per_call." in name:
        return "us"
    return "ratio"


if __name__ == "__main__":
    sys.exit(main())
