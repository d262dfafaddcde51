"""Per-layer metrics from the spans and counters of one traced run.

A span's self time is its duration minus the part of that interval its
child spans cover (children of a sweep run concurrently, so the covered
part is the union of their intervals).  Calls, bytes, time steps,
factorizations and source evaluations are exact counts; tridiagonal
flops and bytes are computed from each solve's (M, n, dtype), not measured.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# buckets of the radial system size n (n_r - 2 or n_r - 1 unknowns) for the
# per-call solve time: label -> largest n in the bucket
SOLVE_BUCKETS = (("n65", 96), ("n129", 192), ("n257", 320), ("n385", 10**9))

SELF_AND_CALLS = (
    "elliptic.tridiag_solve",
    "elliptic.tridiag_factor",
    "elliptic.solve_stream",
    "elliptic.heat_step",
    "elliptic.apply_heat_operator",
    "evolution.step",
    "evolution.record",
    "diagnostics.dissipation_sample",
    "diagnostics.state_inequality_ratios",
    "fields.state_from_dynamic",
    "fields.velocity_from_stream",
    "manufactured.source_eval",
)
SELF_ONLY = (
    "diagnostics.boundary_leakage",
    "diagnostics.h1_proxy",
    "fields.make_initial_data",
    "fields.checkpoint_save",
    "manufactured.build_mms",
    "config.load_config",
    "cli.write_csv",
)
CALLS_ONLY = ("evolution.run_simulation",)
COUNTED = ("grid.ddr", "grid.ddz", "grid.lp_norm", "grid.weighted_integral", "grid.build_grid")
BYTES = ("fields.checkpoint_save", "cli.write_csv")


def solve_cost(M: int, n: int, itemsize: int) -> tuple[int, int]:
    """(flops, bytes) of one Thomas forward/back sweep over M systems of size n.

    Real coefficients, right-hand side of `itemsize` bytes (8 real, 16
    complex).  Forward: d_0 = b_0 q_0, then d_i = (b_i - a_i d_(i-1)) q_i;
    back: x_i -= c_i x_(i+1).  A complex element costs twice the real
    flops.  Bytes are each operand array streamed once per sweep: forward
    reads b, a, q and writes d; back reads c and reads and writes x.
    """
    w = 2 if itemsize == 16 else 1
    flops = M * w * (1 + 3 * (n - 1) + 2 * (n - 1))
    nbytes = M * n * (4 * itemsize + 3 * 8)
    return flops, nbytes


def _self_times(spans) -> dict[int, float]:
    children = defaultdict(list)
    for sid, _name, t0, t1, parent, _run, _extra in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _name, t0, t1, _parent, _run, _extra in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def summarize(trace: dict) -> tuple[dict[str, float], dict]:
    """(per-layer metrics, detail) from a dumped trace."""
    spans = [tuple(s) for s in trace["spans"]]
    self_s = _self_times(spans)
    by_name: dict[str, list] = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    name_self = {name: sum(self_s[s[0]] for s in group) for name, group in by_name.items()}

    m: dict[str, float] = {}
    for name in SELF_AND_CALLS:
        m[f"{name}.self_s"] = name_self.get(name, 0.0)
        m[f"{name}.calls"] = len(by_name.get(name, ()))
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = name_self.get(name, 0.0)
    for name in CALLS_ONLY:
        m[f"{name}.calls"] = len(by_name.get(name, ()))
    for name in COUNTED:
        m[f"{name}.calls"] = trace["counts"].get(name, 0)
    for name in BYTES:
        m[f"{name}.bytes"] = trace["bytes"].get(name, 0)

    # a heat step misses the cache when it built a factorization
    heat_ids = {s[0] for s in by_name.get("elliptic.heat_step", ())}
    misses = {s[4] for s in by_name.get("elliptic.tridiag_factor", ()) if s[4] in heat_ids}
    m["elliptic.heat_cache_hit_ratio"] = 1.0 - len(misses) / len(heat_ids) if heat_ids else 0.0

    # tridiagonal kernel: computed cost, and measured time per call by grid size
    per_shape: dict[tuple[int, int, int], list[float]] = defaultdict(list)
    for s in by_name.get("elliptic.tridiag_solve", ()):
        per_shape[tuple(s[6])].append(s[3] - s[2])
    flops = nbytes = 0
    buckets: dict[str, list[float]] = defaultdict(list)
    kernel_rows = []
    for (M, n, itemsize), times in sorted(per_shape.items()):
        f, b = solve_cost(M, n, itemsize)
        flops += f * len(times)
        nbytes += b * len(times)
        label = next(lbl for lbl, top in SOLVE_BUCKETS if n <= top)
        buckets[label].extend(times)
        kernel_rows.append(
            {"M": M, "n": n, "dtype_bytes": itemsize, "calls": len(times),
             "us_per_call_median": 1e6 * statistics.median(times),
             "flops_per_call_computed": f, "bytes_per_call_computed": b}
        )
    for label, _top in SOLVE_BUCKETS:
        times = buckets.get(label)
        m[f"elliptic.tridiag_solve.us_per_call.{label}"] = 1e6 * statistics.median(times) if times else 0.0
    m["elliptic.tridiag_solve.flops_computed"] = flops
    m["elliptic.tridiag_solve.bytes_computed"] = nbytes

    # shares of the summed self time, which is the busy time of all threads
    busy = sum(name_self.values())
    ranking = sorted(name_self.items(), key=lambda kv: -kv[1])
    detail = {
        "kernel": kernel_rows,
        "top_self": [
            {"name": name, "self_s": t, "share": t / busy if busy else 0.0}
            for name, t in ranking[:12]
        ],
        "spans": len(spans),
    }
    return m, detail
