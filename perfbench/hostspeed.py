"""Host-speed calibration for the end-to-end timings.

On a shared host the CPU time of the same work drifts by up to 2x within a
minute, as the load from other tenants changes, which no feasible run
length averages out.  The drift is common to all CPU-bound code
on the core, so the benchmark measures it: a fixed calibration kernel, which
imports nothing from nnfvi, runs every ``PERIOD_S`` of process CPU time from
a ``SIGPROF`` handler while a pass runs, and each timing is scaled by the
host's speed around it, ``REFERENCE_KERNEL_S / kernel time``.  A timing is
thus reported as CPU seconds at reference speed: the time the same work
takes when the kernel runs in ``REFERENCE_KERNEL_S``.

The sampler's clock is the thread's CPU clock less the time spent in the
kernel, so spans timed with ``Sampler.clock`` exclude the calibration.  The
process CPU clock (``time.process_time``) must not be used while the sampler
runs: with an ITIMER_PROF timer armed, Linux updates it only once per tick.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1               # process CPU time between two kernel samples
WINDOW_S = 1.0               # a span is scaled by the samples this close to it
KERNEL_STEPS = 20            # pivot sweeps per kernel sample, ~2.5 ms
REFERENCE_KERNEL_S = 2.5e-3  # kernel time that defines reference speed
SETUP_SAMPLES = 8            # kernel samples either side of a set-up probe

_TABLEAU = np.random.default_rng(0).random((12, 24)) + 0.1


def kernel() -> None:
    """Fixed work shaped like nnfvi's hot path: small dense pivots in numpy
    with the bookkeeping around them in Python."""
    for _ in range(KERNEL_STEPS):
        t = _TABLEAU.copy()
        basis = {}
        for row in range(6):
            col = int(np.argmax(t[row]))
            t[row] /= t[row, col]
            factors = t[:, col].copy()
            factors[row] = 0.0
            t -= np.outer(factors, t[row])
            basis[row] = col
            min((t[i, col], i) for i in range(12) if i not in basis)
            np.isfinite(np.concatenate([t[row], np.zeros(2)])).all()


def kernel_seconds() -> float:
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def speed_factor(kernel_times) -> float:
    """Mean host speed relative to reference over the given kernel times."""
    return statistics.fmean(REFERENCE_KERNEL_S / k for k in kernel_times)


class Sampler:
    """Kernel samples taken while started: at ``times`` on ``clock``, each
    lasting the matching entry of ``kernels``."""

    def __init__(self):
        self.times: list = []
        self.kernels: list = []
        self._spent = 0.0   # thread CPU time spent in the kernel so far
        self._previous = None

    def clock(self) -> float:
        """Thread CPU time outside the kernel."""
        return time.thread_time() - self._spent

    def _sample(self, signum, frame) -> None:
        start = time.thread_time()
        kernel()
        spent = time.thread_time() - start
        self.times.append(start - self._spent)
        self.kernels.append(spent)
        self._spent += spent

    def start(self) -> None:
        kernel()  # warm numpy's code paths before the first sample
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Host speed around the interval ``[start, end]`` of ``clock``: the
        samples within ``WINDOW_S`` of it, else the samples either side."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no sample that close: the samples either side
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return speed_factor(self.kernels[lo:hi])
