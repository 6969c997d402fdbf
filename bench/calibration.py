"""Host-speed calibration for the timing metrics.

A shared virtual machine can change speed by a factor of two within
seconds, and every operation class then slows down together.  The
loop therefore times a fixed reference computation (small numpy products and
interpreted arithmetic, like the library's own mix) every few milliseconds
between operations.  Each operation's wall time is scaled by
``REFERENCE_MS / (reference time measured around it)``, which expresses it
in seconds of a host on which the reference takes exactly ``REFERENCE_MS``.
The raw wall times are kept in the results file.
"""

from __future__ import annotations

import math
import time
from array import array

import numpy as np

REFERENCE_MS = 1.0
PERIOD_S = 0.02  # at most one sample per 20 ms of loop time
_STEPS = 480
_ROTATION = np.array([[0.96, -0.28], [0.28, 0.96]])


def _reference() -> float:
    v = np.array([1.0, 0.5])
    acc = 0.0
    for i in range(_STEPS):
        v = _ROTATION @ v
        acc += abs(float(v[0])) + math.sqrt(i)
    return acc


def reference_ms() -> float:
    start = time.perf_counter()
    _reference()
    return (time.perf_counter() - start) * 1000.0


class Calibration:
    """Reference timings taken during a run, with their start times.

    ``measure`` returns one reference time in ms, ``period_s`` is the least
    time between samples and ``reference`` the time that counts as speed 1.
    """

    def __init__(self, measure=reference_ms, period_s: float = PERIOD_S, reference: float = REFERENCE_MS):
        self.measure = measure
        self.period_s = period_s
        self.reference = reference
        self.times = array("d")
        self.ms = array("d")

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.ms.append(self.measure())

    def maybe_sample(self) -> None:
        if len(self.times) < 3 or time.perf_counter() - self.times[-1] >= self.period_s:
            self.sample()

    def factors(self, when) -> np.ndarray:
        """Speed factor at each time: the reference time over the median of
        the three samples nearest to it (of all samples, if there are fewer)."""
        times = np.frombuffer(self.times, dtype=float)
        ms = np.frombuffer(self.ms, dtype=float)
        width = min(3, len(times))
        first = np.clip(np.searchsorted(times, np.asarray(when, dtype=float)) - 1, 0, len(times) - width)
        return self.reference / np.median(ms[first[:, None] + np.arange(width)], axis=1)


def reference_samples(count: int = 5) -> list:
    return [reference_ms() for _ in range(count)]
