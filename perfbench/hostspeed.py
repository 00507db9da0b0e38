"""Host speed, sampled between ops, so that op times share one scale.

The 2-vCPU host this benchmark was tuned on runs the same Python code at two
speeds about 2x apart, in episodes that last from seconds to minutes.  Raw
wall-clock figures of a run follow the share of fast time in it, so ten runs
of the same code spread by more than any useful bound, whatever statistic
is taken over the run.

``Calibrator.sample`` times a fixed piece of pure-Python work between ops:
function calls, integer arithmetic and dict lookups, nothing from termdepth
and nothing the garbage collector tracks.  ``Calibrator.scale`` then gives
an op's latency on a host where that work takes ``REF_S``: the raw latency
times ``REF_S`` over the median sample near the op.  A change to termdepth
cannot move the samples, so it moves scaled times as much as raw ones.
This holds as far as a slow host slows the op and the calibration work
alike; on that VM op over calibration time varied by about 4 % while raw op
times varied 2x.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Seconds the calibration work takes on the reference host; scaled times
# read as on a host this fast.  About its time in the VM's slow episodes.
REF_S = 0.002
# Op time between samples, and how far around an op samples count.
EVERY_S = 0.02
WINDOW_S = 0.25
_KEYS = 1024
_ROUNDS = 3300


def _bits(k: int) -> int:
    return 0 if k == 0 else 1 + _bits(k >> 1)


def calibration_work() -> int:
    memo: dict[int, int] = {}
    total = 0
    for i in range(_ROUNDS):
        k = (i * 2654435761) % _KEYS
        v = memo.get(k)
        if v is None:
            v = memo[k] = _bits(k)
        total += v + (i & 7)
    return total


class Calibrator:
    """Timed runs of ``calibration_work``, kept in time order."""

    def __init__(self):
        self.times: list[float] = []  # midpoints
        self.durations: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_work()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def near(self, start: float, end: float) -> float:
        """Median sample within WINDOW_S of [start, end], always counting
        the last sample before it and the first after it."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        hi = max(hi, min(bisect.bisect_right(self.times, end) + 1, len(self.times)))
        return statistics.median(self.durations[lo:hi])

    def scale(self, start: float, end: float) -> float:
        return (end - start) * REF_S / self.near(start, end)

    def median(self) -> float:
        return statistics.median(self.durations)
