"""The benchmark's clock: seconds at the reference host speed.

The host the benchmark runs on changes speed by up to ~1.7x: it holds
one level for 10-60 s, then moves (the quartile distance of a fixed
pure-Python loop's 20 s window means was 0.20 of their median, of its
60 s windows 0.24).  A run of a minute samples one or two levels, so
host seconds of the same work spread past any useful bound between
runs.  The slowdown is common to all pure-Python work in the process,
so a fixed calibration loop timed alongside the workload tracks it:
co-simulation chunks interleaved with the loop spread 0.24-0.25 in host
seconds and 0.07-0.08 once divided by the loop's time over the same
window (a corpus sweep: 0.22 and 0.08).

:class:`ReferenceClock` times that loop from a ``SIGVTALRM`` handler
every :data:`INTERVAL_S` seconds of the process's CPU time and advances
at ``REFERENCE_CAL_S / loop time`` (the median of the last few probes)
reference seconds per host second.  Probe time itself is not counted.
The loop is timed in thread CPU time, so this process's own pool
workers competing for the CPU do not read as a slower host.

Every time the benchmark reports is read from :func:`now`, which is
host time (``time.perf_counter``) until a reference clock is installed.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List

#: Iterations of the calibration loop (~12 ms on the baseline host).
CALIBRATION_ITERATIONS = 60_000
#: Thread CPU seconds of one calibration loop on the baseline host at
#: its median speed: a reference second is a host second there.
REFERENCE_CAL_S = 0.0120
#: Seconds of process CPU time between probes (~2% overhead).
INTERVAL_S = 0.5
#: Probes whose median sets the clock's rate.
RECENT = 5


def calibration_loop() -> int:
    """Fixed pure-Python work: integer arithmetic and dict stores, the
    operations the simulators spend their time in."""
    total = 0
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return total


def calibration_seconds() -> float:
    start = time.thread_time()
    calibration_loop()
    return time.thread_time() - start


class ReferenceClock:
    """Reference seconds since creation; see the module docstring."""

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._rate = 1.0
        self._mark = time.perf_counter()
        self._recent: List[float] = []
        #: Host seconds spent probing, and the probe count.
        self.probe_s = 0.0
        self.probes = 0

    def __call__(self) -> float:
        return self._elapsed + (time.perf_counter() - self._mark) * self._rate

    def probe(self, *_signal_args) -> None:
        start = time.perf_counter()
        self._elapsed += (start - self._mark) * self._rate
        self._recent = (self._recent + [calibration_seconds()])[-RECENT:]
        self._rate = REFERENCE_CAL_S / statistics.median(self._recent)
        self._mark = time.perf_counter()
        self.probe_s += self._mark - start
        self.probes += 1

    @contextmanager
    def running(self) -> Iterator["ReferenceClock"]:
        """Probe now and then every INTERVAL_S of CPU time, with the
        clock installed as :func:`now`."""
        global _clock
        self.probe()
        previous = signal.signal(signal.SIGVTALRM, self.probe)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        _clock = self
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
            signal.signal(signal.SIGVTALRM, previous)
            _clock = time.perf_counter


_clock: Callable[[], float] = time.perf_counter


def now() -> float:
    """Seconds on the installed clock (host seconds if none)."""
    return _clock()
