"""Host-speed probe for timings on a shared machine.

Other tenants of the machine switch it between a fast and a slow state
within seconds, and the slow state lasts from seconds to minutes; process
CPU time stretches as much as wall time.  The same servo operation took
9.0 s and 14.4 s a few minutes apart.  So a short fixed kernel of the
kind of NumPy work a workload does is timed before an operation, every
PERIOD_S during it (from a timer signal) and after it.  The operation's
times, less the probes' own time, are scaled by the kernel's reference
time over the mean probe time: they read as on the reference machine
when idle.  The probes touch no program state, so the program's
numbers are unchanged.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25

_A = np.array([[1.0, 0.1], [0.0, 0.9]])
_I = np.eye(2)
_H = np.linspace(1.0, 2.0, 10000).reshape(100, 100)


def _small() -> None:
    # Tiny matrix products and scalar Python, as in lqr.
    p, acc = _I, 0.0
    for _ in range(150):
        p = 0.5 * (_A.T @ p @ _A) + _I
        for j in range(5):
            acc += j * 0.5


def _arrays() -> None:
    # Element-wise work on 100 x 100 arrays, as in tempo.
    for _ in range(12):
        v = 2.0 / _H
        float(np.tanh((v[:, 1:] - v[:, :-1]) / _H[:, :-1]).sum())


def _kernel() -> None:
    _small()
    _arrays()


# The kernel's time on the reference machine (2-core Intel Xeon) when idle
# [s].  Over 12-16 truck pipelines on a busy host its mean tracked their
# wall time with a log-log slope of 1.08-1.12 and left 3.0-3.2% of scatter;
# the array part alone, at twice the length, under-corrected (slope 0.9-1.4,
# 3.9-4.3% scatter).
REFERENCE_S = 0.0015


def probe() -> float:
    """Seconds for one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def probes(n: int = 5) -> list[float]:
    """``n`` probes after one warm-up probe."""
    probe()
    return [probe() for _ in range(n)]


def scale_of(samples) -> float:
    """Factor taking times measured while ``samples`` were taken to the reference."""
    return REFERENCE_S / statistics.fmean(samples)


class Sampler:
    """Probes the host around and during a timed block.

    Call :meth:`start` right before the block's clock starts and
    :meth:`stop` right after the block; ``wall`` and ``cpu`` then hold the
    time the probes took inside it, and :meth:`scale` gives the factor.
    """

    def __init__(self):
        self.samples = probes()
        self.wall = 0.0
        self.cpu = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(probe())
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        return scale_of(self.samples + probes())
