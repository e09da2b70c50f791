"""Machine-speed probe for timed regions.

The benchmark's host is shared: the same code runs up to 1.8x faster or
slower from one second to the next, for every process alike, and the mix of
fast and slow seconds differs from run to run.  Raw wall times therefore
spread by 10-40 % between runs of identical work.

``SpeedProbe`` samples the host's speed while a region runs: a SIGALRM timer
runs a fixed ~0.5 ms kernel every INTERVAL_S seconds in the same thread
(between the program's bytecodes).  On exit, ``seconds`` is the region's wall
time minus the time spent in the probes, and ``ref_seconds`` rescales it to
a kernel time of REF_S: the wall time the region would have taken had the
host run at the reference speed throughout.  Each sample stands for an equal
slice of the region, so the rescale uses the harmonic mean of the kernel
times (the time-weighted speed); it is also robust to a sample stretched by
a context switch.  On repeated identical scenarios this cuts the spread of
single-scenario times from 8-18 % (raw) to 3-12 %.  ``cpu_seconds`` is the process CPU
time of the region, probes excluded; it is reported for comparison only,
since on this kind of host it swings with the wall time (the slow seconds
are not stolen time but slower execution).
"""

import signal
import statistics
from time import perf_counter, process_time

import numpy as np

INTERVAL_S = 0.025
ENTRY_SAMPLES = 3
# The kernel's time on a quiet host; fixed, it only sets the scale.
REF_S = 0.0005


def kernel():
    """Fixed work in the program's style: small numpy ops in a Python loop."""
    p = np.array([0.01, 0.02, -0.03])
    acc = 0.0
    for _ in range(30):
        r = 0.0961 - np.sum(p * p) + p * p
        acc += float(np.max(np.abs(np.sqrt(r) - p)))
        p = p * 0.999
    return acc


def _timed_kernel():
    start = perf_counter()
    kernel()
    return perf_counter() - start


class SpeedProbe:
    """Context manager timing a region and the host's speed during it."""

    def __enter__(self):
        # A few samples up front, so that short regions are rescaled well too.
        self.samples = [_timed_kernel() for _ in range(ENTRY_SAMPLES)]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = perf_counter()
        self.cpu_start = process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _sample(self, signum, frame):
        self.samples.append(_timed_kernel())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = perf_counter() - self.start
        cpu = process_time() - self.cpu_start
        signal.signal(signal.SIGALRM, self._previous)
        probes = sum(self.samples[ENTRY_SAMPLES:])
        self.seconds = wall - probes
        self.cpu_seconds = cpu - probes
        self.kernel_s = statistics.harmonic_mean(self.samples)
        self.ref_seconds = self.seconds * REF_S / self.kernel_s
        return False
