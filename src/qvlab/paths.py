"""Cadlag sample paths on finite time grids, held a block at a time.

A PathEnsemble holds paths on one shared grid 0 = t_0 < t_1 < ... < t_n:
row p of its value block is path p, and one path is a one-row ensemble.

Each path is piecewise constant between grid times.  X_t = values[i] for t
in [t_i, t_{i+1}), and X_t = values[n] at the horizon t_n, so the path is
right-continuous with left limits.  Its left limit at t_i is values[i-1],
and at time 0 it is X_{0-} = X_0, so no path has an increment at t_0.  This
makes left limits, jump sizes and all partition increments exact, and
represents pure-jump paths without interpolation artifacts.

PathEnsemble.csv_rows writes each path as `t,x,jump` CSV: a header, then
one line per grid time with t, X_t and a 0/1 jump mark.
"""

from __future__ import annotations

import numpy as np


def _check_grid(times: np.ndarray) -> None:
    if times.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if times[0] != 0.0:
        raise ValueError("times must start at 0")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("times must be strictly increasing")


class PathEnsemble:
    """Paths on one shared time grid, held as read-only blocks.

    times is the (n_steps+1,) grid; values and marks are (n_paths, n_steps+1)
    blocks whose row i is path i.  The block is checked once: the grid starts
    at 0 and increases strictly, and every value is finite.
    """

    def __init__(self, times, values, marks):
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        marks = np.asarray(marks, dtype=bool)
        if values.ndim != 2 or values.shape[0] == 0:
            raise ValueError("ensemble must contain at least one path")
        if marks.shape != values.shape or values.shape[1:] != times.shape:
            raise ValueError("values and marks must be (n_paths, len(times)) blocks")
        _check_grid(times)
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        for arr in (times, values, marks):
            arr.setflags(write=False)
        self.times, self.values, self.marks = times, values, marks

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def csv_rows(self):
        """Each path's `t,x,jump` CSV, in row order, with the grid's times
        formatted once for every row.  Every field is a float's repr or a 0/1
        mark, which holds no comma, quote or newline, so no field is quoted."""
        times = [f"{t!r}," for t in self.times.tolist()]
        ends = (",0\n", ",1\n")
        for x, marks in zip(self.values, self.marks):
            rows = zip(times, x.tolist(), marks.tolist())
            yield "".join(["t,x,jump\n", *(f"{t}{v!r}{ends[j]}" for t, v, j in rows)])
