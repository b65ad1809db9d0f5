"""Machine-speed probe, for timing on a host whose speed drifts.

On a shared host the same code can run 1.5x slower for seconds or minutes
at a time. The probe is a fixed pure-Python loop that touches no part of
safemean, so its time follows that drift and nothing else. A timed result is
reported in reference seconds: measured seconds times ``REFERENCE_S`` over the
probe's time around the measurement, i.e. the time the work would take on a
machine where the probe takes ``REFERENCE_S``. A change to safemean moves the
measured seconds and not the probe, so it moves the reported figure in full.
"""

from __future__ import annotations

import time

LOOP = 100_000
REPEATS = 3
REFERENCE_S = 0.007
INTERVAL_S = 0.5


def _loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    return time.perf_counter() - start


def probe() -> float:
    """Median seconds of a few runs of the fixed loop."""
    return sorted(_loop() for _ in range(REPEATS))[REPEATS // 2]


class SpeedTrack:
    """Probe samples taken between operations, at most one per ``INTERVAL_S``."""

    def __init__(self):
        self.samples = [probe()]
        self._last = time.perf_counter()

    def mark(self) -> int:
        """Probe if ``INTERVAL_S`` has passed; the index of the latest sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(probe())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def close(self) -> None:
        self.samples.append(probe())

    def scale(self, index: int) -> float:
        """Reference seconds per measured second between samples index and index + 1."""
        return 2.0 * REFERENCE_S / (self.samples[index] + self.samples[index + 1])
