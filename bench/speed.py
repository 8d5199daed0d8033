"""Machine speed, sampled while the measured work runs.

On a shared host, other tenants can slow this process by 20-80% for
seconds at a time, and its own CPU clock does not show it (process time
tracks wall time).  A fixed pure-Python reference step, timed at regular
intervals during the work, shows the current slowdown.  Latencies are
rescaled to the step's nominal duration:

    scaled = raw * NOMINAL_S / (median step time near the operation)

so a reading means "seconds on this VM when idle".  The step does the kind
of work the package does (interpreted float arithmetic and libm calls).
This module imports nothing that the package imports, so loading it before
the set-up clock starts does not shorten the measured set-up.
"""

from __future__ import annotations

import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

# The reference step on an idle 2-core VM (Python 3.11).  It only sets the
# scale of the readings.
NOMINAL_S = 5.5e-5
PERIOD_S = 0.02
WINDOW_S = 0.5
WARM_SAMPLES = 5


def reference_step() -> float:
    """Seconds taken by one fixed step of float and libm work."""
    start = perf_counter()
    s = c = 0.0
    for l in range(1, 300):
        t = math.exp(math.log1p(1.0 / l) - 1e-3 * l)
        y = s + t
        c += (s - y) + t
        s = y
    return perf_counter() - start


def scale_from(steps: list[float]) -> float:
    """NOMINAL_S over the median of the step times."""
    ordered = sorted(steps)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return NOMINAL_S / median


class SpeedProbe:
    """Times the reference step every PERIOD_S from an interval timer.

    ``spent`` accumulates the time taken by the samples, so that callers
    can take it out of the latencies they measure.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.steps: list[float] = []
        self.spent = 0.0

    def _sample(self, *_) -> None:
        start = perf_counter()
        self.steps.append(reference_step())
        self.times.append(start)
        self.spent += perf_counter() - start

    def __enter__(self) -> SpeedProbe:
        for _ in range(WARM_SAMPLES):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Rescaling factor for work done between start and end."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end)
        return scale_from(self.steps[lo:hi] or self.steps[-WARM_SAMPLES:])
