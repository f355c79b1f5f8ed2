"""Host-speed normalisation of the end-to-end times.

On a shared host the same code runs up to 1.8x slower for seconds to
minutes at a time, and process CPU time slows down with it (the core is
slower, it is not descheduled).  So while a timed pass runs, a fixed
calibration kernel (``KERNEL_FFTS`` real FFT round trips of 4096 points,
about 1 ms, after one untimed round trip) runs every ``PERIOD`` seconds
from a SIGALRM handler in the same thread, and records how long it took.

``SpeedMeter.work_seconds(a, b)`` splits the interval ``[a, b]`` at the
kernel runs, drops the time they took, and scales each
piece by ``REF_S / k``, where ``k`` is the median of the kernel times
around it.  The result is seconds at the reference speed, at which the
kernel takes ``REF_S``: pnedge's own work, with the host's speed of the
moment divided out.  The raw seconds are returned as well.

The kernel uses ``numpy.fft`` functions bound when this module is
imported, and the meter runs only in untraced passes, so the tracer
never counts its transforms.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD = 0.05        # s between kernel runs
KERNEL_FFTS = 10     # rfft/irfft round trips per kernel run
WINDOW = 5           # kernel runs in each median
REF_S = 1.0e-3       # kernel time at the reference speed (s)

_rfft, _irfft = np.fft.rfft, np.fft.irfft
_X = np.random.default_rng(0).standard_normal(4096)


def kernel_seconds() -> float:
    """One kernel run.  An untimed round trip first brings its data and
    code into cache, so the time tracks the core's speed rather than the
    cache state the interrupted work left behind."""
    _irfft(_rfft(_X))
    t0 = time.perf_counter()
    for _ in range(KERNEL_FFTS):
        _irfft(_rfft(_X))
    return time.perf_counter() - t0


def speed_factor(samples: int = WINDOW) -> float:
    """``REF_S`` over the median of ``samples`` kernel runs made now."""
    return REF_S / statistics.median(kernel_seconds() for _ in range(samples))


class SpeedMeter:
    """Samples the kernel while it is entered; one meter per pass."""

    def __init__(self):
        self.starts: list[float] = []   # perf_counter when each tick began
        self.ends: list[float] = []     # and when it ended
        self.costs: list[float] = []    # the timed part of its kernel run

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.costs.append(kernel_seconds())
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()  # at least one sample, even for a very short pass
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _factor(self, k: int) -> float:
        k = min(max(k, 0), len(self.costs) - 1)
        lo = max(0, min(k - WINDOW // 2, len(self.costs) - WINDOW))
        return REF_S / statistics.median(self.costs[lo:lo + WINDOW])

    def work_seconds(self, a: float, b: float) -> tuple[float, float]:
        """(raw, normalised) seconds spent in ``[a, b]`` outside the kernel."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self.starts, b)
        raw = norm = 0.0
        begin = a
        for k in range(i, j + 1):
            end = self.starts[k] if k < j else b
            raw += end - begin
            norm += (end - begin) * self._factor(k - 1 if k == j else k)
            if k < j:
                begin = self.ends[k]
        return raw, norm
