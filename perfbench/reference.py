"""Reference kernels that measure how fast the machine runs right now.

The 2-vCPU machine this benchmark was tuned on changes speed by 20% or
more over minutes as other tenants come and go, and every timing moves
with it: over 40-second windows the wall time of a fixed entry-wise run
spread by 0.19 (quartile distance over median), and by 0.03 once divided
by the time of an interleaved reference kernel. So the timed loop also
times a reference kernel between trials and scales each trial's time to
the speed at which that kernel takes its nominal time.

A kernel runs only numpy and the interpreter, never package code, and
resembles its workload's mix of work, so a change to the package moves
the workload's time and not the kernel's. It runs in the measuring
thread, right before and after each trial, and run.py pins the process
to one CPU:
the machine's two vCPUs slow down at different times, and a kernel timed
on the other one does not track the trial. Its arrays are small, so it
does not raise the measured peak memory.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _small_calls() -> None:
    rng = np.random.default_rng(0)
    U = rng.standard_normal((2000, 20))
    for _ in range(40):
        idx = rng.integers(0, 2000, 100)
        B = U[idx]
        q, r = np.linalg.qr(B)
        np.linalg.svd(r, compute_uv=False)
        w = np.linalg.solve(r, q.T @ B[:, 0])
        lifted = np.zeros(2000)
        np.add.at(lifted, idx, B[:, 1])
        U += 1e-9 * np.outer(lifted, w)
        np.linalg.svd(U[:20], compute_uv=False)


def _large_draw() -> None:
    # 500 x 5000 Gaussian entries in 50-row blocks: the same work as one
    # dense draw, but 2 MB live instead of 40 MB, which would hide a
    # memory saving in the sketch behind the kernel's own peak.
    rng = np.random.default_rng(0)
    U = rng.standard_normal((5000, 10))
    for _ in range(10):
        (rng.standard_normal((50, 5000)) / np.sqrt(5000)) @ U


@dataclass(frozen=True)
class Reference:
    """A reference kernel and its time at nominal speed.

    The nominal times are near the kernels' times on an idle 2.1 GHz Xeon
    vCPU with OpenBLAS on one thread; they only set the scale.
    """

    kernel: Callable[[], None]
    nominal_s: float

    def time(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    def slowdown(self, times: list[float]) -> float:
        """How many times slower than nominal the machine ran during ``times``."""
        return statistics.fmean(times) / self.nominal_s


# Gathers, small LAPACK calls and rank-one updates on a 2000 x 20 array,
# the mix of an entry-wise step.
SMALL_CALLS = Reference(_small_calls, nominal_s=0.015)
# Gaussian draws of a 500 x 5000 sketch's size and a thin product, like a
# sketched step.
LARGE_DRAW = Reference(_large_draw, nominal_s=0.045)
