"""Host-speed sampling, to express measured times at one fixed host speed.

The benchmark runs on shared virtual machines whose CPU throughput swings by
up to 1.9x in phases of 10-30 s, as other tenants come and go. A wall time
alone then says as much about the neighbours as about skewbench. While a
timed interval runs, ``HostSpeed`` interrupts it every ``INTERVAL_S`` seconds
(``SIGALRM`` from an interval timer, handled in this one thread) and times
``REFERENCE_LOOP`` pure-Python steps. The ratio ``NOMINAL_S / r`` says how
fast the host ran at that moment relative to a fixed nominal speed.

A wall time ``t`` over which the reference samples read ``r_1 .. r_n`` is
reported as ``t * mean(NOMINAL_S / r_i)`` seconds at nominal speed. With
samples spread evenly over ``t`` that is the sum of ``dt * NOMINAL_S / r``,
the work done expressed in nominal seconds; a slow sample (a preemption)
shrinks its term instead of dominating it. The time spent sampling is taken
out of ``t`` first. Raw wall times are kept in the report beside the
adjusted ones.

``NOMINAL_S`` is a constant of the benchmark, near the reference loop's
typical time on the 2-vCPU x86_64 VM (Python 3.11) the bounds were set on,
so adjusted times there read close to wall times. It must not change between
two commits that are compared.
"""

from __future__ import annotations

import signal
import time
from statistics import fmean

INTERVAL_S = 0.05
REFERENCE_LOOP = 4000
NOMINAL_S = 0.0004


def reference_s() -> float:
    """Time one run of the fixed pure-Python reference loop."""
    began = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i % 7
    return time.perf_counter() - began


class HostSpeed:
    """Samples the host speed on a timer over the ``with`` block it guards.

    After the block, ``wall_s`` is its wall time less the time spent
    sampling, ``factor`` the mean of ``NOMINAL_S / r`` over the samples (1.0
    if the block was too short to hold one) and ``adjusted_s`` their product.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self.wall_s = 0.0

    def _sample(self, signum, frame) -> None:
        began = time.perf_counter()
        self.samples.append(reference_s())
        self.sampling_s += time.perf_counter() - began

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._began = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = time.perf_counter() - self._began - self.sampling_s
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def factor(self) -> float:
        return fmean(NOMINAL_S / r for r in self.samples) if self.samples else 1.0

    @property
    def adjusted_s(self) -> float:
        return self.wall_s * self.factor
