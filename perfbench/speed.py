"""A speed probe that rescales wall time to a machine of fixed speed.

The benchmark runs on a share of a shared host.  How fast that share runs
single-threaded code changes by a third and more within minutes, in steps
that last seconds to minutes, as other tenants load the cores.  That drift
swamps any change to rcasr smaller than about a quarter.

While a timed block runs, ``SpeedProbe`` runs one of four small fixed kernels
from a timer signal every ``PERIOD_S``, twice, and times the second call.
Each kernel's median time over the block, divided by its reference time,
says how much slower than the reference the core ran; the mean of the four
ratios is the block's slowdown.  ``reference_s`` divides the block's wall
time, less the time the probes took, by that slowdown: the block's time on a
machine where the kernels take their reference times.  The kernels stand for
the kinds of work rcasr does: the interpreter loop, numpy calls on small
arrays, a dense GEMM, dict updates.

The first call brings the kernel's code and data back into cache, so the
timed call measures the core more than the cache state the program leaves
behind: during decode-paper rounds (850 MB resident) the probes ran 1.06
times as long as during train-toy rounds (55 MB), against 1.31 times when
timed on the first call.  The probe therefore sees little of the contention
for the shared cache or for memory bandwidth.  Python runs a signal handler between bytecodes, so a tick due
inside a long numpy call waits until the call returns.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.02
# median time of each kernel, in order, probed during train-toy and decode-paper
# rounds on the reference machine (2 vCPUs of an Intel Xeon under KVM, Python
# 3.11, numpy 2.4 on OpenBLAS 0.3.31, one BLAS thread); they only set the scale
# of the rescaled times, which come out near the wall times of a typical minute
REFERENCE_S = (3.5e-5, 2.7e-4, 1.2e-4, 4.9e-5)

_rng = np.random.default_rng(0)
_M48 = _rng.random((48, 48))
_M128 = _rng.random((128, 128))
_U, _V = _rng.random(1000), _rng.random(1000)


def _interpreter():
    s = 0
    for i in range(400):
        s += i * i
    return _M48 @ _M48


def _small_arrays():
    for _ in range(5):
        np.logaddexp(_U, _V)
        np.argsort(_U)


def _gemm():
    return _M128 @ _M128


def _dict():
    d = {}
    for i in range(300):
        d[i % 37] = d.get(i % 37, 0) + i
    return d


KERNELS = (_interpreter, _small_arrays, _gemm, _dict)


class SpeedProbe:
    """Context manager: probes the core's speed while the block runs.

    Not reentrant, and only for the main thread, where Python runs signal
    handlers.  It replaces any SIGALRM handler and timer for the block.
    """

    def __init__(self):
        self.samples = [[] for _ in KERNELS]
        self.probe_s = 0.0
        self._ticks = 0

    def _tick(self, signum, frame):
        j = self._ticks % len(KERNELS)
        self._ticks += 1
        t0 = perf_counter()
        KERNELS[j]()            # brings the kernel's code and data back into cache
        t1 = perf_counter()
        KERNELS[j]()
        t2 = perf_counter()
        self.samples[j].append(t2 - t1)
        self.probe_s += t2 - t0

    def __enter__(self):
        self.samples = [[] for _ in KERNELS]
        self.probe_s = 0.0
        self._ticks = 0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self):
        """Mean over the kernels of their median time over their reference time.

        A block shorter than one tick per kernel (train-paper's set-up takes
        about four ticks) is rescaled by the kernels it did sample.
        """
        ratios = [statistics.median(s) / ref for s, ref in zip(self.samples, REFERENCE_S) if s]
        if not ratios:
            raise ValueError(f"the block ended before the first probe tick ({PERIOD_S} s)")
        return statistics.fmean(ratios)

    def reference_s(self, wall_s):
        """`wall_s` of the probed block, less the probes' own time, at reference speed."""
        return (wall_s - self.probe_s) / self.slowdown()
