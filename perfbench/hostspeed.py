"""Host-speed calibration: a fixed reference kernel timed between operations.

The host's speed drifts: on the 2-vCPU VM the first numbers came from, runs
minutes apart differed by up to 1.7x on every timing at once.  The main
loop therefore times :func:`kernel` -- fixed benchmark code that mixes
interpreter work on small objects with small float32 NumPy operations, like
the program's own hot paths -- between its operations.  Reported timings are
*reference seconds*: the measured time multiplied by
``REFERENCE_S / (the median kernel time around it)``.  On a host running at
reference speed they equal wall seconds.  When the whole host slows down,
the kernel slows with it and the factor cancels the drift; a slower program
still reads slower, because the kernel's code does not change with it.

The kernel allocates its arrays afresh on every call.  With arrays fixed at
import, its median varied by more than 10% between processes on an idle host
(their memory placement differs), as much as the drift it is meant to
cancel.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

import numpy as np

#: Median :func:`kernel` time, in seconds, inside benchmark runs on the
#: 2-vCPU Xeon VM the README's numbers come from.  Fixed with the benchmark:
#: changing it rescales every reported time.
REFERENCE_S = 0.0080
#: Timed kernel calls per calibration point, and the least main-loop time
#: between two points.
REPS = 3
EVERY_S = 1.0
#: Kernel timings that scale one interval: about three calibration points.
NEAREST = 9


def kernel() -> None:
    """A fixed amount of mixed interpreter and NumPy work."""
    rng = np.random.default_rng(1)
    a = rng.random((48, 64), dtype=np.float32)
    b = rng.random((64, 64), dtype=np.float32)
    keys = rng.integers(0, 1000, 2000)
    table: dict = {}
    rows = []
    for i in range(6000):
        table[i % 97] = table.get(i % 97, 0) + i
        if i % 3 == 0:
            rows.append((i, str(i)))
    rows.sort(key=lambda row: -row[0])
    for _ in range(36):
        np.tanh(a @ b).sum()
        np.unique(keys)
        np.concatenate([keys[:500], keys[500:900]])


class HostSpeed:
    """Kernel timings of one run, and the factor they give each of its timings."""

    def __init__(self) -> None:
        #: ``(time taken, kernel seconds)`` per timed kernel call.
        self.points: List[Tuple[float, float]] = []
        self._last = -float("inf")

    def sample(self, force: bool = False) -> None:
        """Time ``REPS`` kernel calls, unless the last ones are under ``EVERY_S`` old.

        An untimed call first brings the kernel's code back into the caches,
        so the timings depend on the host, not on the operation before them.
        """
        if not force and time.perf_counter() - self._last < EVERY_S:
            return
        kernel()
        for _ in range(REPS):
            start = time.perf_counter()
            kernel()
            self._last = time.perf_counter()
            self.points.append((self._last, self._last - start))

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second for an interval of the run.

        The host's speed also drifts within a run, by about 20% over a few
        seconds, so each interval is scaled by the ``NEAREST`` kernel timings
        closest to it in time, not by the whole run's.
        """
        if not self.points:
            return 1.0

        def gap(point: Tuple[float, float]) -> float:
            return max(start - point[0], point[0] - end, 0.0)

        nearest = sorted(self.points, key=gap)[:NEAREST]
        return REFERENCE_S / statistics.median(seconds for _, seconds in nearest)

    def run_factor(self) -> float:
        """The factor over the whole run (reported alongside, not applied)."""
        if not self.points:
            return 1.0
        return REFERENCE_S / statistics.median(seconds for _, seconds in self.points)
