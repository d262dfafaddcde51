"""Run one axicyl CLI command in a fresh process and report its step counts.

    python3 perfbench/child.py RESULT_JSON {coupled,heat} {0,1} -- <axicyl args>

Imports axicyl from the checkout's `src/`.  A counter on the time-step
method (`Stepper.step` for coupled runs, `EllipticSolver.heat_step` for
heat-only runs) records the monotonic time of the first step and the grid
size of every step; that is the only instrumentation of an untraced run.
An untraced run also samples host speed (speed.py) from its start to
the command's return and reports the samples.  With trace 1 the span
tracer is installed instead, and its spans are written next to
RESULT_JSON as RESULT_JSON + ".spans".

Exits with the command's own exit code.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count_steps(kind: str):
    from axicyl.elliptic import EllipticSolver
    from axicyl.evolution import Stepper

    cls, attr = (Stepper, "step") if kind == "coupled" else (EllipticSolver, "heat_step")
    inner = getattr(cls, attr)
    first: list[float] = []
    shapes: list[tuple[int, int]] = []

    def counted(self, *args, **kwargs):
        if not first:
            first.append(time.monotonic())
        shapes.append(self.grid.shape)
        return inner(self, *args, **kwargs)

    setattr(cls, attr, counted)
    return first, shapes


def main(argv: list[str]) -> int:
    result_path, kind, trace = argv[0], argv[1], argv[2] == "1"
    if argv[3] != "--" or kind not in ("coupled", "heat"):
        raise SystemExit("usage: child.py RESULT_JSON {coupled,heat} {0,1} -- <axicyl args>")
    sys.path.insert(0, str(ROOT / "src"))
    tracer = sampler = None
    if trace:
        from tracer import install

        tracer = install()
    else:
        from speed import Sampler

        sampler = Sampler()
        sampler.start()
    first, shapes = count_steps(kind)
    import axicyl.cli

    code = axicyl.cli.main(argv[4:])
    if tracer is not None:
        tracer.dump(result_path + ".spans")
    if sampler is not None:
        sampler.stop()
    # largest working-set array: the per-mode complex spectrum (n_z/2+1) x n_r
    # of the largest grid stepped, or the real mesh array if that is larger
    largest = max((max(nr * nz * 8, (nz // 2 + 1) * nr * 16) for nr, nz in set(shapes)), default=0)
    result = {
        "first_step": min(first) if first else None,
        "time_steps": len(shapes),
        "node_steps": sum(nr * nz for nr, nz in shapes),
        "largest_array_bytes": largest,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "speed_samples": sampler.samples if sampler is not None else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
