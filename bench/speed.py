"""Time at a reference machine speed.

The benchmark runs on shared machines whose speed drifts: on a 2-core Xeon
VM a fixed pure-Python loop took anywhere from 1.05 to 1.7 ms, in bursts
lasting seconds to minutes.  A ReferenceClock therefore measures the
machine's speed while it times a region: a 50 ms interval timer interrupts
the region with a fixed probe loop and records how long the probe took.
The region's time is its wall time less the probes' own time, scaled by
REFERENCE_PROBE_S over the median probe time, that is, the seconds the
region would take on a machine where the probe takes exactly 1 ms.  On the
VM above, the interquartile range of certify's run medians was 22% of
their median over four runs timed by wall clock, and 3% over five runs
timed this way.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.001
MIN_PROBES = 5


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - start


class ReferenceClock:
    """Times the region it encloses; afterwards ``wall`` holds the wall
    seconds, ``speed`` the median probe seconds and ``seconds`` the time at
    the reference speed.  Regions may not nest."""

    def __enter__(self) -> "ReferenceClock":
        self._probes: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self._probes.append(probe()))
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._start
        probes = list(self._probes)  # a late probe would fall outside `wall`
        signal.signal(signal.SIGALRM, self._previous)
        work = self.wall - sum(probes)
        while len(probes) < MIN_PROBES:
            probes.append(probe())
        self.speed = statistics.median(probes)
        self.seconds = work * REFERENCE_PROBE_S / self.speed
