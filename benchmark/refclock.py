"""Reference-scaled clock.

Wall and CPU seconds on a shared machine drift with the host's load.
The clock therefore runs a fixed loop of pure integer arithmetic next to
the measured work, at least once per second of it, and rescales every
measured interval by ``R0 / R``: ``R`` is the loop time measured around
the interval and ``R0`` is the loop time this benchmark takes as its
reference machine speed.  The result is seconds at a fixed machine speed.

The loop allocates only ``int`` objects, which the garbage collector
does not track, so the size of the program's heap cannot change its
speed, and it never triggers a collection.

Loop runs are driven by ``SIGALRM`` so that they also happen inside a
single long operation (one rotation-model report takes about 20 s).
The handler runs in the main thread between bytecodes; the time it
takes is added to ``paused`` and so removed from every interval
measured on :meth:`RefClock.net`.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_right

# Iterations of the reference loop; about 17 ms on the reference machine.
LOOP_ITERATIONS = 100_000
# Reference loop time in seconds (median on the reference machine, see
# README.md).  Fixed: changing it rescales every reported time.
R0 = 0.0175
# Seconds of wall time between two loop runs.
INTERVAL = 0.5


def spin(n: int = LOOP_ITERATIONS) -> int:
    x = 1
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


class RefClock:
    """Net monotonic time (wall time minus the reference loop's own time)
    plus the loop samples needed to rescale any interval of it."""

    def __init__(self) -> None:
        self.paused = 0.0
        self.sample_at = array("d")  # net time at which each loop ran
        self.sample_s = array("d")  # duration of that loop run
        self._busy = False
        self._running = False

    def net(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self) -> None:
        """Run the reference loop once and record its time."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        spin()
        t1 = time.perf_counter()
        self.sample_at.append(t0 - self.paused)
        self.sample_s.append(t1 - t0)
        self.paused += time.perf_counter() - t0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Sample once, then every :data:`INTERVAL` seconds until :meth:`stop`."""
        self.sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False
        self.sample()

    def excluded(self):
        """Context manager for benchmark-only work (trace bookkeeping):
        no loop runs inside it and its time is removed from net time."""
        return _Excluded(self)

    def scaled(self, start: float, end: float) -> float:
        """Reference-scaled length of the net-time interval [start, end].

        Between two consecutive loop samples the machine speed is taken
        as the mean of their loop times; before the first and after the
        last sample, that sample's time."""
        at, dur = self.sample_at, self.sample_s
        n = len(at)
        if n == 0:
            raise RuntimeError("the reference clock has no samples")
        total = 0.0
        t = start
        i = bisect_right(at, t) - 1
        while t < end:
            if i < 0:
                seg_end, ref = at[0], dur[0]
            elif i >= n - 1:
                seg_end, ref = end, dur[n - 1]
            else:
                seg_end, ref = at[i + 1], 0.5 * (dur[i] + dur[i + 1])
            stop = min(seg_end, end)
            total += (stop - t) * R0 / ref
            t = stop
            i += 1
        return total

    def loop_ms(self) -> list[float]:
        return [1000.0 * s for s in self.sample_s]


class _Excluded:
    def __init__(self, clock: RefClock) -> None:
        self.clock = clock

    def __enter__(self):
        self.was_busy = self.clock._busy
        self.clock._busy = True
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if not self.was_busy:  # an enclosing exclusion already counts this time
            self.clock.paused += time.perf_counter() - self.t0
        self.clock._busy = self.was_busy
