"""Host speed correction for the benchmark's time metrics.

On a shared host the same Python loop can run 1.5x slower for
stretches of seconds to minutes, because other guests contend for the
physical core and its caches. That drift is larger than the changes the
benchmark is meant to show, and no amount of averaging inside one run
removes it when a slow stretch covers the whole run.

So the worker times a few fixed calibration kernels right around every
~0.1 s of measured work, and scales each stretch of work by how much
slower or faster than their reference times the kernels ran. The
kernels do not touch vesselflow, so a change to the program moves the
corrected times in the same proportion as the raw ones; only the host's
speed cancels. The corrected times are "seconds on the reference host": the
machine the README's reference figures come from, where the kernels
take REFERENCE_S. The raw wall times are printed next to them.

The pure-Python kernels need nothing but the standard library, so they
can run before `import vesselflow` (and numpy) is timed; the numpy
kernels join them once numpy is loaded.
"""

from __future__ import annotations

import math
import sys
import time

PERIOD_S = 0.1  # measured work between two calibrations


def _int_loop():
    s = 0
    for i in range(12000):
        s += i * i
    return s


def _dict_math():
    d = {}
    for i in range(3200):
        d[i & 63] = d.get(i & 63, 0.0) * 0.5 + math.sqrt(i)
    return d


_ARRAYS = {}


def _numpy_small():
    np = sys.modules["numpy"]
    a = _ARRAYS.get(17)
    if a is None:
        a = _ARRAYS[17] = np.linspace(1.0, 2.0, 17)
    c = 0.0
    for _ in range(180):
        c += float((np.sqrt(a * a + 1.0) + a).sum())
    return c


def _numpy_grid():
    np = sys.modules["numpy"]
    x = _ARRAYS.get(3200)
    if x is None:
        x = _ARRAYS[3200] = np.linspace(1.0, 2.0, 3200)
    for _ in range(48):
        y = np.exp(-x) * x + np.sqrt(x)
    return y


PURE = (_int_loop, _dict_math)
ALL = PURE + (_numpy_small, _numpy_grid)

# median kernel times on the reference host (README, Reference figures)
REFERENCE_S = {
    "_int_loop": 0.96e-3,
    "_dict_math": 0.79e-3,
    "_numpy_small": 0.97e-3,
    "_numpy_grid": 0.85e-3,
}


def calibrate(kernels=ALL) -> dict[str, float]:
    """Time of each kernel, the faster of two tries."""
    out = {}
    clock = time.perf_counter
    for k in kernels:
        best = math.inf
        for _ in range(2):
            t0 = clock()
            k()
            best = min(best, clock() - t0)
        out[k.__name__] = best
    return out


def scale(before: dict, after: dict) -> float:
    """Reference seconds per wall second for work done between two
    calibrations: the geometric mean over the kernels both have of
    reference time / measured time (mean of the two ends)."""
    names = [n for n in before if n in after]
    logs = [math.log(2.0 * REFERENCE_S[n] / (before[n] + after[n])) for n in names]
    return math.exp(sum(logs) / len(logs))


class SpeedLog:
    """Corrected and raw time of a stretch of work that calls `mark()`
    now and then (the solver's per-step callback)."""

    def __init__(self):
        self.wall = 0.0
        self.corrected = 0.0
        self._cal = None
        self._t = None

    def start(self) -> None:
        self._cal = calibrate()
        self._t = time.perf_counter()

    def _close(self, now: float) -> None:
        cal = calibrate()
        self.wall += now - self._t
        self.corrected += (now - self._t) * scale(self._cal, cal)
        self._cal = cal
        self._t = time.perf_counter()

    def mark(self) -> None:
        now = time.perf_counter()
        if now - self._t >= PERIOD_S:
            self._close(now)

    def stop(self) -> None:
        self._close(time.perf_counter())
