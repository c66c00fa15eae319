"""Interpreter-speed calibration for a shared, contended host.

On a small shared host the same job's wall time moves by 30-100% between
minutes, as the host's load comes and goes; a pure-Python loop slows down
with it. So a fixed pure-Python loop is timed right after every timed
sample (and between set-ups), and each sample is reported in *reference
seconds*: its wall seconds times ``REFERENCE_S`` over the mean of the
calibration times just before and just after it. A change to the library
moves the sample and not the loop, so it shows in full; a slow spell of the
host moves both and mostly cancels. The wall samples are kept alongside.

Changing the loop or ``REFERENCE_S`` rescales every reported time: do not.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.1  # about the loop's wall time on an idle 2 GHz Xeon core
_LOOP = 1_750_000


def _loop() -> int:
    total = 0
    for i in range(_LOOP):
        total += i * i
    return total


class Calibration:
    """The calibration samples of one run and the scale they give a sample."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end)

    def sample(self) -> None:
        start = time.perf_counter()
        _loop()
        self.samples.append((start, time.perf_counter()))

    @property
    def last_end(self) -> float:
        return self.samples[-1][1]

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second for a sample over ``[start, end]``:
        from the last calibration that ended by ``start`` and the first that
        began at or after ``end``."""
        before = [s for s in self.samples if s[1] <= start][-1:]
        after = [s for s in self.samples if s[0] >= end][:1]
        near = [b - a for a, b in before + after]
        return REFERENCE_S * len(near) / sum(near)

    def durations(self) -> list[float]:
        return [b - a for a, b in self.samples]
