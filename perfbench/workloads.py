"""The three benchmark workloads and the output checks each run must pass.

Every workload is one `axicyl` CLI command on a config in `configs/`.  The
configs are the bundled experiment configs cut down so that one run takes
three to six seconds; the checks are the acceptance thresholds of the
matching criterion, applied to the CSV and manifest files the command
writes.  No workload's inputs depend on `--seed`: all use bump data,
manufactured fields or power spikes.

A check is (name, measured, tolerance, ratio).  The ratio is how much of
the tolerance is used: a run fails when any ratio exceeds 1.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    tolerance: float
    ratio: float

    @property
    def ok(self) -> bool:
        return self.ratio <= 1.0


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _status(out: Path) -> Check:
    status = json.loads((out / "manifest.json").read_text())["status"]
    ok = status == "completed"
    return Check(f"manifest status {status}", float(ok), 1.0, 0.0 if ok else math.inf)


def _at_most(name: str, measured: float, tolerance: float) -> Check:
    return Check(name, measured, tolerance, measured / tolerance)


def check_coupled_swirl(out: Path) -> list[Check]:
    """Criterion 12: energy equality, swirl bounds and the (1.11) budget."""
    rows = _rows(out / "diagnostics.csv")
    col = lambda key: [float(r[key]) for r in rows]
    sup0 = float(rows[0]["sup_Gamma"])
    e0 = float(rows[0]["E_kin"])
    viol = max(
        (float(r["lhs_1_11"]) - float(r["E_bound_1_11"])) / max(float(r["E_bound_1_11"]), 1e-300)
        for r in rows
    )
    return [
        _status(out),
        _at_most("energy residual (1.5)", max(col("budget_residual_1_5")), 1e-3),
        _at_most("max-principle margin (1.6)", max(col("margin_1_6")), 1e-6 * sup0),
        _at_most("L4 margin (1.7)", max(col("margin_1_7")), 1e-8 * math.sqrt(sup0 * math.sqrt(e0))),
        _at_most("(1.11) violation", viol, 1e-10),
    ]


def check_mms_ladder(out: Path) -> list[Check]:
    """Criterion 1: observed space-time orders in [1.8, 2.2]."""
    rows = _rows(out / "mms_orders.csv")
    checks = [_status(out)]
    for r in rows[1:]:
        order = float(r["observed_order"])
        checks.append(Check(f"order at n={r['n']}", order, 0.2, abs(order - 2.0) / 0.2))
    if len(rows) < 3:
        checks.append(Check("levels reported", len(rows), 3, math.inf))
    return checks


def check_semigroup_heat(out: Path) -> list[Check]:
    """Criteria 8 and 9: exponent errors <= 0.08, commutation reduction >= 3."""
    fits = _rows(out / "semigroup_fits.csv")
    worst = max(abs(float(r["fitted_exponent"]) - float(r["target_exponent"])) for r in fits)
    comm = _rows(out / "commutation.csv")
    reductions = [float(r["reduction_ratio"]) for r in comm[1:]]
    least = min(reductions)
    return [
        _status(out),
        _at_most("max exponent error", worst, 0.08),
        Check("min commutation reduction", least, 3.0, 3.0 / least if least > 0 else math.inf),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Path
    step: str  # time step: "coupled" is Stepper.step, "heat" is EllipticSolver.heat_step
    check: Callable[[Path], list[Check]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coupled_swirl", "run", HERE / "configs" / "coupled_swirl.cfg", "coupled",
                 check_coupled_swirl),
        Workload("mms_ladder", "mms", HERE / "configs" / "mms_ladder.cfg", "coupled",
                 check_mms_ladder),
        Workload("semigroup_heat", "semigroup", HERE / "configs" / "semigroup_heat.cfg", "heat",
                 check_semigroup_heat),
    )
}
