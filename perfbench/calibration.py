"""Fixed reference work that tracks how fast the shared machine runs.

The benchmark runs this script in a fresh interpreter right before every
timed process and scales its medians by the calibration times (see
``at_reference_speed`` in run.py).  The work mirrors the hot paths of the
program without importing it, so that program changes never change it:
interpreter start-up and the numpy import, a Philox stream per path, a
per-step Euler loop over numpy scalars, ``searchsorted`` lookups onto dyadic
cut times, pure-Python Kahan loops over ``tolist()`` values, a broadcast
hinge sum and ``repr`` formatting of floats.  It prints a checksum so the
work cannot be skipped.

Usage: python calibration.py N_PATHS
"""

import math
import sys

import numpy as np

N_STEPS = 4096


def euler(times, z, jumps, sigma, drift) -> np.ndarray:
    dt = 1.0 / N_STEPS
    sqdt = math.sqrt(dt)
    values = np.empty(N_STEPS + 1)
    x = 0.0
    values[0] = x
    for i in range(N_STEPS):
        t = times[i]
        s = float(sigma(t, x))
        b = float(drift(t, x))
        if not (math.isfinite(s) and math.isfinite(b)):
            raise ArithmeticError("non-finite coefficient")
        x = x + b * dt + s * sqdt * z[i] + jumps[i + 1]
        values[i + 1] = x
    return values


def kahan_sq(xs: list) -> float:
    s = c = 0.0
    for k in range(1, len(xs)):
        d = xs[k] - xs[k - 1]
        y = d * d - c
        t = s + y
        c = (t - s) - y
        s = t
    return s


def main(n_paths: int) -> None:
    times = np.linspace(0.0, 1.0, N_STEPS + 1)
    t_grid = np.linspace(0.0, 1.0, 257)
    x_grid = np.linspace(-1.0, 1.0, 65)
    hinge = np.zeros((t_grid.size, x_grid.size))
    total = 0.0
    for i in range(n_paths):
        rng = np.random.Generator(np.random.Philox(key=(12345 << 64) | i))
        z = rng.standard_normal(N_STEPS)
        jumps = np.zeros(N_STEPS + 1)
        jumps[rng.integers(1, N_STEPS + 1, size=3)] = rng.standard_normal(3)
        x = euler(times, z, jumps, lambda t, x: 0.5 + 0.1 * abs(x), lambda t, x: -0.1 * x)
        for level in range(6, 13):
            cuts = np.linspace(0.0, 1.0, 2**level + 1)
            idx = np.searchsorted(times, cuts, side="right") - 1
            total += kahan_sq(x[idx].tolist())
        xt = x[np.searchsorted(times, t_grid, side="right") - 1]
        hinge += np.maximum(xt[:, None] - x_grid[None, :], 0.0)
        text = "\n".join(f"{t!r},{v!r}" for t, v in zip(t_grid.tolist(), xt.tolist()))
        total += len(text)
    print(repr(total + float(hinge.sum())))


if __name__ == "__main__":
    main(int(sys.argv[1]))
