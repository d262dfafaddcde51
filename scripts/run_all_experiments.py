#!/usr/bin/env python3
"""Drive every experiment family with the bundled configs.

Writes each experiment's CSVs and manifest into out/<name>/ and prints
a one-line status per family, with the minor page faults its command took
(the manifest's extra.process); exits with the worst exit code.  The
acceptance gate (tests/test_acceptance.py) runs run_all once and checks
the files it writes.
"""

import json
import sys
import time
from pathlib import Path

from axicyl.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

EXPERIMENTS = [
    ("run", "energy_budget.cfg"),
    ("run", "smoke_large_swirl.cfg"),
    ("run", "monotone_max_principle.cfg"),
    ("mms", "mms.cfg"),
    ("semigroup", "semigroup.cfg"),
    ("picard", "picard.cfg"),
    ("sweep-eps", "eps_sweep.cfg"),
    ("inequalities", "inequalities.cfg"),
]


def run_all(out_root: Path) -> list[tuple[str, str, int, float]]:
    """(command, config, exit code, wall seconds) of each experiment."""
    runs = []
    for command, cfg_name in EXPERIMENTS:
        out_dir = out_root / cfg_name.removesuffix(".cfg")
        t0 = time.perf_counter()
        code = main(
            [command, "--config", str(CONFIGS / cfg_name), "--out", str(out_dir)]
        )
        seconds = time.perf_counter() - t0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        faults = manifest["extra"]["process"]["minor_page_faults"]
        print(
            f"{command:<13} {cfg_name:<28} exit={code} {seconds:5.1f}s {faults:>7} faults"
            f"  -> {out_dir}/manifest.json"
        )
        runs.append((command, cfg_name, code, seconds))
    return runs


if __name__ == "__main__":
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "out"
    sys.exit(max(code for _, _, code, _ in run_all(out_root)))
