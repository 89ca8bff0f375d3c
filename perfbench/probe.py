"""Host-speed probe: scales measured times to a reference host speed.

On a shared host the speed of the benchmark's process drifts: other tenants
contend for the same cores and caches, in episodes from a few seconds to
minutes long.  Whole runs can fall in a slow or a fast episode, so raw wall
times of the same code spread by up to 1.5x from run to run.

The probe times a fixed pure-Python loop every ``PERIOD_S`` seconds, from a
``SIGALRM`` handler, while the workload runs in the same thread.  Its samples
therefore see the same host states as the workload, at the same moments.  A
measured time is scaled by ``REFERENCE_S`` over the median probe time of the
same stretch, which gives the time the work would take at the reference
speed.  The median is used, not the mean: a probe that the host happens to
preempt reads many times too long, and a mean over a few hundred samples
follows those rare spikes.  The loop lives in the benchmark, so a change to
the program leaves it alone and scaled times compare like raw ones.  The
probe costs about 1% of the run; that share is the same on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.02
LOOP = 5000
# Median probe time on the baseline host (2-core x86-64 KVM guest, Python
# 3.11.7).  Only a unit: any constant gives the same ratios between commits.
REFERENCE_S = 0.000230


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i
    return s


class SpeedProbe:
    """Context manager that samples the probe loop on a real-time timer."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Position to pass to ``scale`` for the stretch that starts now."""
        return len(self.samples)

    def scale(self, *windows: tuple[int, int]) -> float:
        """Reference time over the median probe time in the given windows
        (pairs of marks)."""
        window = [t for a, b in windows for t in self.samples[a:b]]
        if not window:
            raise RuntimeError("no probe sample in the measured stretch")
        return REFERENCE_S / statistics.median(window)
