"""Fixed reference kernels that measure how fast the machine is right now.

On a shared host the same code runs up to 1.8x slower for seconds to
minutes at a time.  The benchmark runs a kernel between pieces of the
program's work and scales each host time by ``REF_NS / unit time``
measured beside it, so a figure reads as it would on a machine where one
unit takes exactly ``REF_NS``.  Each kernel is the same kind of work as the
code it scales, because a slow phase does not slow every kind of work
alike:

- ``unit``: a Python-driven RK4 over a 3 x 12 state with small numpy calls
  and a 6 x 6 solve, like the simulation step;
- ``text_unit``: floats formatted with ``repr`` and joined into CSV lines,
  like the export.

Neither imports the program, so a change to the program cannot change
them.  ``python3 perfbench/calibrate.py`` prints the median time, in ms, of
15 units of each.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

REF_NS = 1_000_000  # the reference speed: one unit takes 1 ms
UNIT_STEPS = 10
TEXT_ROWS = 14

_M = np.random.default_rng(0).standard_normal((6, 6)) + 6.0 * np.eye(6)


def _deriv(y: np.ndarray) -> np.ndarray:
    s, c = np.sin(y[:, 3:9]), np.cos(y[:, 3:9])
    acc = np.linalg.solve(_M, (y[:, 6:] * c - s).T).T
    return np.concatenate([y[:, 6:], np.clip(acc, -5.0, 5.0)], axis=1)


def unit() -> np.ndarray:
    """One unit of reference work: UNIT_STEPS RK4 steps of a toy 3-body system."""
    y = np.zeros((3, 12))
    y[:, 6:] = 0.1
    h = 0.01
    for _ in range(UNIT_STEPS):
        k1 = _deriv(y)
        k2 = _deriv(y + h / 2 * k1)
        k3 = _deriv(y + h / 2 * k2)
        k4 = _deriv(y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


_ROW = [float(x) for x in np.random.default_rng(1).standard_normal(60)]


def text_unit() -> int:
    """One unit of reference text work: TEXT_ROWS CSV lines of 60 floats."""
    size = 0
    for k in range(TEXT_ROWS):
        size += len(",".join(repr(v * (k + 1)) for v in _ROW) + "\n")
    return size


def timed(kernel) -> int:
    start = perf_counter_ns()
    kernel()
    return perf_counter_ns() - start


def median_ns(kernel, n: int) -> float:
    kernel()  # warm-up
    return statistics.median(timed(kernel) for _ in range(n))


if __name__ == "__main__":
    print(median_ns(unit, 15) / 1e6, median_ns(text_unit, 15) / 1e6)
