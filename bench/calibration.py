"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of a core can change by a third from one
second to the next.  A ``Speedometer`` runs a fixed kernel every tenth of a
second, from a timer signal so that long tasks are sampled too, and a
task's wall time, less the kernel runs inside it, is scaled by the
kernel's reference time over the mean kernel time seen during the task.
Timings then read as seconds at a reference speed.  The kernel mixes
small numpy vector operations with interpreter work, as hardyshift does,
and uses no hardyshift code: a change to the program moves the task
times, never the kernel.
"""

import bisect
import signal
import time

import numpy as np

# Kernel seconds that define the reference speed (about the kernel's
# median time on the 2-core Xeon machine the benchmark was tuned on).
REFERENCE_S = 0.005

_A = np.exp(1j * np.arange(385.0))
_B = np.conj(_A)


def kernel_seconds() -> float:
    """Wall seconds of one run of the calibration kernel."""
    start = time.perf_counter()
    a, acc = _A.copy(), 0j
    for i in range(600):
        acc += np.vdot(a, _B)
        a = a * 0.999 + _B * 1e-3
        acc += len({"k": i, "v": [i, i + 1]}["v"])
    return time.perf_counter() - start


class Speedometer:
    """Kernel samples (start, seconds) taken every ``period`` seconds while
    the context is active, and whenever ``sample`` is called."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.starts: list = []
        self.seconds: list = []
        self._old = None
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        try:
            start = time.perf_counter()
            seconds = kernel_seconds()
            self.starts.append(start)
            self.seconds.append(seconds)
        finally:
            self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def at_reference_speed(self, start: float, end: float) -> tuple:
        """(seconds at reference speed, raw seconds) of the interval, both
        without the kernel runs inside it.  The speed is the mean kernel
        time over the samples inside the interval and the nearest one on
        each side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        raw = end - start - sum(self.seconds[lo:hi])
        near = self.seconds[max(0, lo - 1): hi + 1]
        return raw * REFERENCE_S * len(near) / sum(near), raw
