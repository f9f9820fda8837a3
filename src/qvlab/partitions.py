"""Dyadic refinement ladders on a path grid.

Level L of a ladder on a grid of n_steps steps cuts the grid into 2^L cells
of n_steps >> L grid steps each, so its cuts are grid columns and the values
at the cuts are a strided view of a value block.  An exclusion set S is a
(paths, grid) bool mask: cell k = (tau_{k-1}, tau_k] of a row is excluded
when it holds a grid column of that row's S, that is, a column g with
idx[k-1] < g <= idx[k].  The half-open convention makes "S absorbs the
jumps" exact for grid paths: a jump realized at a cut belongs to the cell
whose increment contains it.  A time off the grid is put in S by its column,
the first grid time at or after it, which puts it in the cell whose
(tau_{k-1}, tau_k] contains it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Level(NamedTuple):
    """One level of a ladder: its cut columns as a slice and as indices, its
    cut times (a view of the grid) and its mesh, horizon * 2^-level."""

    level: int
    cut: slice
    idx: np.ndarray
    cut_times: np.ndarray
    mesh: float

    @property
    def n_cells(self) -> int:
        return self.idx.size - 1

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> tuple:
        """(rows, 0-based cells) of the (row, grid column) pairs that lie in
        a cell: column g lies in cell k when idx[k] < g <= idx[k+1], so
        column 0 and columns past the grid lie in none."""
        k = np.searchsorted(self.idx, cols, side="left")
        hit = (k >= 1) & (k <= self.n_cells)
        return rows[hit], k[hit] - 1


class RefinementLadder:
    """Dyadic levels l_min..l_max of the grid `times`."""

    def __init__(self, times: np.ndarray, l_min: int, l_max: int):
        if l_min > l_max:
            raise ValueError("l_min must be <= l_max")
        n_steps = times.size - 1
        columns = np.arange(n_steps + 1)
        levels = []
        for level in range(l_min, l_max + 1):
            if n_steps % (1 << level) != 0:
                raise ValueError(f"grid with {n_steps} steps is not divisible into 2^{level} cells")
            cut = slice(0, n_steps + 1, n_steps >> level)
            cut_times = times[cut]
            levels.append(Level(level, cut, columns[cut], cut_times, math.ldexp(float(times[-1]), -level)))
        self.times = times
        self.levels = tuple(levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    @property
    def meshes(self) -> list:
        return [lev.mesh for lev in self.levels]

    def require_grid(self, n_grid: int) -> None:
        """Refuse values on a grid of another size than the ladder's."""
        if n_grid != self.times.size:
            raise ValueError(f"ladder built on a grid of {self.times.size - 1} steps, values on a grid of {n_grid - 1}")
