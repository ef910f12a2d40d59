"""Host-speed calibration for wall-clock metrics on a shared, noisy machine.

On a virtual machine that shares cores with other tenants, the same code runs
at speeds that differ by up to 2x for seconds to minutes at a time. Two fixed
kernels, owned by the benchmark and independent of eccbounds, are timed
between operations: a loop of scalar arithmetic and small-vector numpy updates
(the instruction mix of interpreted numeric code) and a 400 x 400 matrix
product (the mix of BLAS-bound code). ``factor()`` is the geometric mean over
the two kernels of reference time over the median of the samples taken
nearest to a given moment (or of all samples). Multiplying a wall time by the
factor at that moment gives the time the same work would take on the
reference host at its typical speed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median kernel times on the reference host (2-vCPU Intel Xeon at 2.1 GHz,
#: numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_S = {"rotations": 0.0068, "matmul": 0.0025}

#: Seconds of operations between two calibration samples.
INTERVAL_S = 0.5
#: A moment's factor uses this many samples nearest to it in time.
NEAREST = 5


def _rotations(a0: np.ndarray) -> None:
    a = a0.copy()
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            theta = 0.5 * (a[q, q] - a[p, p]) / a[p, q]
            t = 1.0 / (abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            ap = a[:, p].copy()
            aq = a[:, q].copy()
            a[:, p] = c * ap - s * aq
            a[:, q] = s * ap + c * aq


class Calibration:
    """Collects kernel timings through a run and turns them into a speed factor."""

    def __init__(self) -> None:
        rng = np.random.default_rng(2024)
        sym = rng.normal(size=(40, 40))
        self._sym = sym + sym.T
        self._dense = rng.normal(size=(400, 400))
        self.times: list[float] = []
        self.samples: dict[str, list[float]] = {name: [] for name in REFERENCE_S}

    def _kernels(self):
        yield "rotations", lambda: _rotations(self._sym)
        yield "matmul", lambda: self._dense @ self._dense

    def sample(self) -> None:
        """Time each kernel once, after an untimed call that warms its caches."""
        self.times.append(time.perf_counter())
        for name, kernel in self._kernels():
            kernel()
            start = time.perf_counter()
            kernel()
            self.samples[name].append(time.perf_counter() - start)

    def factor(self, at: float | None = None) -> float:
        """Speed factor from the samples nearest to ``at``, or from all samples."""
        picked = range(len(self.times))
        if at is not None:
            picked = sorted(picked, key=lambda i: abs(self.times[i] - at))[:NEAREST]
        logs = [
            math.log(REFERENCE_S[name] / statistics.median(times[i] for i in picked))
            for name, times in self.samples.items()
        ]
        return math.exp(sum(logs) / len(logs))
