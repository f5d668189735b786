"""Host speed samples, for timings at a reference speed.

The host's speed drifts by tens of percent between and within runs, also in
the middle of a long op.  So times are expressed at a reference speed: the
measured time times the host speed while it ran.  Speed is the nominal over
the measured duration of a tiny fixed kernel, sampled before and after the
timed work and, from a timer signal, during it.  Exact workloads and set-up
are Fraction-bound and use a Fraction kernel; the grid oracle is
LAPACK-bound and uses an SVD.  Only the standard library is imported here,
so set-up can be timed from before numpy is loaded.
"""

from __future__ import annotations

import contextlib
import functools
import signal
import statistics
import time
from fractions import Fraction

BOUNDARY_SAMPLES = 5
SAMPLE_INTERVAL_S = 0.05


def fraction_kernel() -> None:
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i % 7 + 1, i % 13 + 2)


@functools.cache
def _svd_input():
    import numpy as np

    # Large enough to run out of cache the way the grid's LAPACK calls do; a
    # 48 x 48 SVD tracked their speed poorly.
    return np.random.default_rng(0).random((160, 160))


def lapack_kernel() -> None:
    import numpy as np

    np.linalg.svd(_svd_input(), compute_uv=False)


# kind -> (kernel, its nominal duration in seconds)
KERNELS = {"fraction": (fraction_kernel, 0.0003), "lapack": (lapack_kernel, 0.002)}


class SpeedProbe:
    """Samples of the host speed, taken around timed work and during it.

    ``sample`` runs the kernel a few times.  Inside ``during`` a timer signal
    runs it every SAMPLE_INTERVAL_S; the time its handler takes is kept in
    ``overhead`` so that callers can take it off the timed work.
    """

    def __init__(self, kind: str):
        self.kernel, self.nominal = KERNELS[kind]
        self.samples: list[float] = []
        self.overhead = 0.0

    def _one(self) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(self.nominal / (time.perf_counter() - start))

    def sample(self) -> list[float]:
        self.samples = []
        for _ in range(BOUNDARY_SAMPLES):
            self._one()
        return self.samples

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self._one()
        self.overhead += time.perf_counter() - start

    @contextlib.contextmanager
    def during(self):
        self.samples, self.overhead = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def at_reference(elapsed: float, samples: list[float]) -> float:
    """A raw duration scaled by the median of the speed samples around and in it."""
    return elapsed * statistics.median(samples)
