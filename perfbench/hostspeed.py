"""Host-speed sampling, so that timings taken as the host drifts compare.

The benchmark's host is a shared virtual machine.  Its processor runs the
same code up to 40% slower for stretches of seconds to minutes, with no time
stolen that the guest could see, so a run's timings depend on when it ran.
A HostSpeed sampler times a fixed pure-Python kernel every PERIOD_S seconds
of wall time, from a SIGALRM handler, while the workload runs.  The kernel
touches almost no memory, so its time follows the processor's speed and not
the state the workload left in the caches.  It is timed in the thread's CPU
time, which the guest's own scheduler does not advance while the thread
waits, so a program that keeps more cores busy (a pool, more BLAS threads)
does not move it; a slower host processor does, because the guest sees no
stolen time.  Its median time over a run,
against REFERENCE_KERNEL_S, is the host's slowness in that run; the run's
timings divided by it are the timings it would have had at the reference
speed.  The kernel calls no radarnet code, so a change to the program moves
the timings and never the divisor.  The handler's own time is counted in
spent_s, so that callers can take it out of the intervals they time.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
# Median kernel time on the host recorded in environment.json.  It only fixes
# the scale: a run there at its usual speed reports about what it measures.
REFERENCE_KERNEL_S = 0.77e-3


def kernel() -> int:
    """About 0.8 ms of interpreter work on two small integers."""
    a, b = 1, 0
    for i in range(6000):
        b = (b + a * i) & 0xFFFF
        a ^= b
    return b


def slowness(kernel_times, reference_s: float = REFERENCE_KERNEL_S) -> float:
    """Median kernel time over the reference time: 1.25 means the host ran
    the kernel 25% slower than the reference."""
    if not kernel_times:
        raise ValueError("no kernel time was sampled")
    return statistics.median(kernel_times) / reference_s


class HostSpeed:
    """Times kernel() every PERIOD_S seconds between start() and stop()."""

    def __init__(self):
        self.kernel_times = []  # CPU seconds per kernel() call
        self.spent_s = 0.0      # wall time spent in the handler
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        c0 = time.thread_time()
        kernel()
        self.kernel_times.append(time.thread_time() - c0)
        self.spent_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
