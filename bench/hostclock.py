"""A clock that runs at a fixed reference speed of the host.

On a shared host the same code runs up to about 1.8 times slower for
seconds at a time, whenever a neighbour loads the core; a median of raw
wall times over a 20-second run then reads mostly how busy the neighbours
were.  ``HostClock`` measures the host's current speed every ``PERIOD_S``
seconds by timing a fixed pure-Python kernel from a ``SIGALRM`` handler,
and advances by the wall time elapsed since the previous sample times
``REF_KERNEL_S`` over the kernel's time at this sample.  It therefore reads
seconds of a host on which the kernel takes ``REF_KERNEL_S``; the time
spent in the kernel itself does not count.

Only the main thread may create a clock, and only one clock may run in a
process at a time (it owns ``SIGALRM``).
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

KERNEL_ITERS = 6000
# Kernel time on the host the benchmark was defined on (a 2-vCPU "Intel
# Xeon Processor" VM, Python 3.11) while no neighbour loaded it, so that a
# reading is close to that host's unloaded wall time.
REF_KERNEL_S = 8.0e-4
PERIOD_S = 0.05


def kernel() -> None:
    """Fixed work: dictionary reads and writes in the interpreter loop."""
    d: dict[int, int] = {}
    for i in range(KERNEL_ITERS):
        d[i & 255] = d.get((i * 7) & 255, 0) + i


class HostClock:
    """Reference seconds since ``start`` (a ``time.monotonic()`` reading,
    possibly taken in the parent process before this interpreter started).
    """

    def __init__(self, start: float | None = None) -> None:
        self.kernel_s = array("d")
        mark = time.monotonic() if start is None else start
        # (reference seconds at mark, mark, reference seconds per second)
        self._state = (0.0, mark, 1.0)
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self) -> None:
        ref, mark, _ = self._state
        a = time.monotonic()
        kernel()
        b = time.monotonic()
        rate = REF_KERNEL_S / (b - a)
        self._state = (ref + (a - mark) * rate, b, rate)
        self.kernel_s.append(b - a)

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def now(self) -> float:
        while True:
            state = self._state
            t = time.monotonic()
            if self._state is state:  # no sample was taken in between
                ref, mark, rate = state
                return ref + (t - mark) * rate

    def slowdown(self) -> float:
        """Median kernel time over the reference kernel time."""
        return statistics.median(self.kernel_s) / REF_KERNEL_S

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
