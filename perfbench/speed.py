"""Host speed, sampled while a workload runs, and run times rescaled by it.

The benchmark's host is a shared VM whose cores switch, several times a
minute and independently of each other, between a fast state and one
1.4 to 2.3 times slower (contention on the same physical core).
CPU time slows as much as wall time, so neither can be compared between
runs as it stands.

`Sampler` times a fixed probe (`probe()`: interpreter work, a short
Thomas sweep and an FFT on small arrays, the mix of the program's own
time steps) every INTERVAL_S seconds of the running process, from a
SIGALRM handler, so the samples cover set-up, imports included, as well
as the time steps.  `rescale()` then scales each stretch of the run
between two samples by PROBE_REF_S / (the probe's time there): the
result is the run's time at the host's fast speed, in seconds.

A probe's time is the CPU time of the thread that runs it, not wall time,
so that a probe preempted by another process or waiting for the GIL does
not read as a slow core.  A contended core's CPU time slows as much as
its wall time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# the probe's time on a core in the fast state: 5th percentile of the probes
# in twenty coupled_swirl and twenty semigroup_heat runs (2-core Intel Xeon
# VM, numpy 2.4.6).  A constant: it sets the scale, so that rescaled times
# read close to the raw ones on a quiet host.
PROBE_REF_S = 2.4e-4

_rng = np.random.default_rng(12345)
_RHS = _rng.standard_normal((33, 64))
_SUB = _rng.uniform(0.1, 0.3, (33, 64))
_INV = _rng.uniform(0.5, 1.0, (33, 64))


def probe() -> float:
    """One probe; returns its checksum so no work can be skipped."""
    s = 0.0
    for i in range(400):
        s += i * 0.5
    y = np.fft.irfft(np.fft.rfft(_RHS, axis=1), n=64, axis=1)
    d = np.empty_like(y)
    d[:, 0] = y[:, 0] * _INV[:, 0]
    for i in range(1, 64):
        d[:, i] = (y[:, i] - _SUB[:, i] * d[:, i - 1]) * _INV[:, i]
    return s + float(d[0, -1])


class Sampler:
    """Probe samples (start, end, CPU time) taken every INTERVAL_S from SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False

    def sample(self, *_):
        if self._busy:  # an alarm that arrives while a probe runs is dropped
            return
        self._busy = True
        t0, c0 = time.monotonic(), time.thread_time()
        probe()
        c1 = time.thread_time()
        self.samples.append((t0, time.monotonic(), c1 - c0))
        self._busy = False

    def start(self) -> None:
        probe()  # the first calls set up numpy's FFT caches: not timed
        probe()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def rescale(start: float, marks: list[float], samples: list[tuple[float, float, float]]) -> list[float]:
    """Time from `start` to each mark at the fast host speed, probe time left out.

    The stretches between samples (before the first and after the last
    too) are each scaled by PROBE_REF_S over the median probe time of the
    four samples around it, which ignores a probe hit by a single stall.
    """
    took = [cpu for _, _, cpu in samples]
    bounds = [start] + [t for a, b, _ in samples for t in (a, b)] + [max(marks)]
    stretches = [  # stretch k ends where sample k starts
        (bounds[2 * k], bounds[2 * k + 1], PROBE_REF_S / statistics.median(took[max(0, k - 2):k + 2]))
        for k in range(len(samples) + 1)
    ]
    return [sum(max(0.0, min(b, mark) - a) * speed for a, b, speed in stretches) for mark in marks]
