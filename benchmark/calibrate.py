"""Calibration kernels: fixed numpy work that tracks the machine's speed.

The reference machine (2 vCPUs shared with other tenants) runs identical
code at speeds that differ by up to 2x for tens of seconds at a time, while
CPU time keeps tracking wall time, so the spread comes from the machine and
not from the scheduler. Timing a fixed kernel right before and after each
round gives the machine's current speed, and the round's time is reported
in reference seconds: its wall time scaled by the kernel's nominal time over
its measured time. A kernel only tracks work with the same working set, so
there are two. ``small`` mirrors training at desk scale: matmuls on a few
KB, elementwise transcendental functions and Python-level calls. ``large``
mirrors the simplex-grid scan: elementwise passes over 5.4 MB arrays, which
live in L3. The kernels belong to the benchmark, so no change to ``src/``
can move them.
"""

import math
import time

import numpy as np

GRID_ROWS = 135_751  # the bounds_scan simplex grid: c = 5, delta = 0.025


def _small(inputs):
    X, W1, W2 = inputs
    acc = 0.0
    for i in range(3200):
        h = np.tanh(X @ W1)
        z = h @ W2
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        g = np.log1p(-0.5 * np.abs(z) / (1.0 + np.abs(z)))
        row = {"i": i, "p": float(p.sum()), "g": float(g.sum())}
        acc += row["p"] + row["g"]
    return acc


def _large(inputs):
    (grid,) = inputs
    acc = 0.0
    for k in range(6):
        U = np.clip(grid, 1e-12, 1.0 - 1e-12)
        ce = -np.log(U[:, k % 5])
        tail = (U**1.5).sum(axis=1)
        weight = np.where(ce < 1.0, 1.0 - ce, 0.0) ** 1.3
        acc += float(ce.sum() + tail.sum() + weight.sum())
    return acc


class Kernel:
    """One calibration kernel with its time on the reference machine."""

    # (body, nominal seconds in the machine's fast state)
    KINDS = {"small": (_small, 0.05), "large": (_large, 0.07)}

    def __init__(self, kind):
        self.kind = kind
        self._body, self.nominal_s = self.KINDS[kind]
        rng = np.random.default_rng(0)
        if kind == "small":
            self._inputs = (rng.normal(size=(16, 2)), rng.normal(size=(2, 16)), rng.normal(size=(16, 3)))
        else:
            self._inputs = (rng.dirichlet(np.ones(5), size=GRID_ROWS),)

    def seconds(self):
        """Wall seconds of one pass of the kernel."""
        start = time.perf_counter()
        acc = self._body(self._inputs)
        elapsed = time.perf_counter() - start
        if not math.isfinite(acc):
            raise ArithmeticError(f"{self.kind} calibration kernel produced a non-finite value")
        return elapsed
