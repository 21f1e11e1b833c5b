"""Durations in reference seconds, corrected for the machine's speed.

The machines this benchmark runs on share their cores with other tenants,
and the same Python code can take up to twice as long from one moment to
the next.  ``SpeedClock`` times a small pure-Python reference loop every
``PERIOD`` seconds from a SIGALRM handler, which runs between bytecodes of
whatever the main thread is doing, including long calls into diagcat.

Work is timed with ``clock()``, which returns a ``perf_counter`` reading
and notes the thread's CPU time at that reading.  After ``stop``,
``duration(t0, t1)`` converts the interval between two readings: each
stretch between two samples of the loop counts its thread CPU time times
``REFERENCE_S / m``, ``m`` being the median CPU time of the two samples
before and the two after it, and the loop itself counts nothing.  CPU
time leaves out the time the thread waits for a core; the loop's CPU
time scales out how fast the core runs while it has one.  A duration is
thus the time the work would take on a core of its own, at the speed
where the loop takes ``REFERENCE_S``.  ``cpu_duration`` gives the plain
CPU time of an interval, for comparison.  The loop touches nothing in
diagcat and runs with the garbage collector off.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter, thread_time

PERIOD = 0.025
# The reference loop's time on an unloaded core of the machine the
# baseline was measured on; only the ratio matters.
REFERENCE_S = 0.0005
HALF_WINDOW = 2


def reference_loop() -> None:
    """Small tuples, sorting, dict and set traffic: the kind of work
    diagcat's pure-Python code does, so contention slows both alike."""
    seen = {}
    for i in range(180):
        t = tuple(sorted((i * 7919 + j * 104729) % 97 for j in range(8)))
        seen[t] = seen.get(t, 0) + 1
        members = frozenset(t)
        [x for x in t if x in members]


class SpeedClock:
    def __init__(self):
        self.starts: list[float] = []  # when each sample of the loop began
        self.ends: list[float] = []  # and when it ended
        self._cpu_starts: list[float] = []  # thread CPU time at those moments
        self._cpu_ends: list[float] = []
        self._rates: list[float] = []  # speed of the stretch before sample k
        self._cpu: dict[float, float] = {}  # clock() reading -> thread CPU time

    def __call__(self) -> float:
        cpu = thread_time()
        t = perf_counter()
        self._cpu[t] = cpu
        return t

    def _tick(self, signum, frame) -> None:
        # The loop runs with the collector off, so that the size of the
        # program's heap does not slow the loop and get divided out.  The
        # CPU readings enclose the whole handler, which counts nothing.
        cpu = thread_time()
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        reference_loop()
        end = perf_counter()
        self._cpu_starts.append(cpu)
        self.starts.append(start)
        self.ends.append(end)
        if enabled:
            gc.enable()
        self._cpu_ends.append(thread_time())

    def start(self) -> None:
        for _ in range(HALF_WINDOW):
            self._tick(None, None)
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(HALF_WINDOW):
            self._tick(None, None)
        loops = [e - s for s, e in zip(self._cpu_starts, self._cpu_ends)]
        self._rates = [
            REFERENCE_S / statistics.median(loops[max(0, k - HALF_WINDOW): k + HALF_WINDOW])
            for k in range(len(loops))
        ]

    def _stretches(self, t0: float, t1: float):
        """(k, CPU seconds): the thread CPU time of the interval between
        two ``clock()`` readings that falls in the stretch between samples
        k-1 and k of the loop."""
        k = max(1, bisect.bisect_right(self.ends, t0))
        while k < len(self.starts) and self.ends[k - 1] < t1:
            lo = self._cpu[t0] if t0 > self.ends[k - 1] else self._cpu_ends[k - 1]
            hi = self._cpu[t1] if t1 < self.starts[k] else self._cpu_starts[k]
            if hi > lo:
                yield k, hi - lo
            k += 1

    def duration(self, t0: float, t1: float) -> float:
        """Reference seconds of work between two ``clock()`` readings."""
        return sum(cpu * self._rates[k] for k, cpu in self._stretches(t0, t1))

    def cpu_duration(self, t0: float, t1: float) -> float:
        """CPU seconds of the thread between two ``clock()`` readings,
        less the reference loop's own CPU time."""
        return sum(cpu for _, cpu in self._stretches(t0, t1))

    @property
    def loop_s(self) -> float:
        """Real seconds spent in the reference loop."""
        return sum(e - s for s, e in zip(self.starts, self.ends))
