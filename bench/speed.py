"""Speedometer: wall times scaled to one fixed speed of the machine.

On a shared machine the same work can take up to twice as long while other
tenants load the cores, in stretches of seconds to a minute. CPU time rises
with wall time there, so it does not help. The speedometer runs a fixed
probe (about 5 ms of CPU) in the main thread every PERIOD_S, from a SIGALRM
handler, so it samples the speed of the core the program runs on while it
runs. An interval's scaled time is its wall time, less the probes inside
it, times the mean of PROBE_REF_S / probe CPU time over the probes in and
next to it: its wall time at the speed at which the probe takes
PROBE_REF_S, about this machine when nothing else loads it.

Interpreter-bound and numpy-bound code slow down by different amounts, so
there are two probes, and a workload uses the one that matches its code.
The probe's own CPU time, not its wall time, is used, so a probe that
shares a core with a pool worker reads the core's speed and not its share
of it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
PROBE_REF_S = 0.005

_A = np.random.default_rng(0).standard_normal((16, 32, 64))
_W = np.random.default_rng(1).standard_normal((64, 64))


def _interpreter_probe() -> None:
    counts: dict[int, int] = {}
    for i in range(40000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def _numpy_probe() -> None:
    for _ in range(56):
        (_A @ _W).sum()


PROBES = {"interpreter": _interpreter_probe, "numpy": _numpy_probe}


class Speedometer:
    """Probe samples (end time, probe wall s, probe CPU s) while active."""

    def __init__(self, probe: str):
        self._probe = PROBES[probe]
        self.samples: list[tuple[float, float, float]] = []

    def sample(self, *_signal) -> None:
        """Run the probe once and record it; also the SIGALRM handler."""
        t0, c0 = time.perf_counter(), time.thread_time()
        self._probe()
        c1, t1 = time.thread_time(), time.perf_counter()
        self.samples.append((t1, t1 - t0, c1 - c0))

    def __enter__(self) -> "Speedometer":
        for _ in range(3):  # warm caches; a cold probe reads slow
            self._probe()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds [start, end] would take at the reference speed."""
        inside = [s for s in self.samples if start < s[0] <= end]
        near = [s for s in self.samples if start - PERIOD_S < s[0] <= end + PERIOD_S] \
            or [min(self.samples, key=lambda s: abs(s[0] - end))]
        wall = end - start - sum(s[1] for s in inside)
        return wall * statistics.fmean(PROBE_REF_S / s[2] for s in near)


class Clock:
    """Wall seconds of measured calls, with their intervals for `Speedometer.scaled`."""

    def __init__(self):
        self.wall_s = 0.0
        self.intervals: list[tuple[float, float]] = []

    def time(self, fn, *args):
        """(result, wall seconds) of one call."""
        t0 = time.perf_counter()
        out = fn(*args)
        t1 = time.perf_counter()
        self.intervals.append((t0, t1))
        self.wall_s += t1 - t0
        return out, t1 - t0
