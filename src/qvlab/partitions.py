"""Partitions, refinement ladders and the included-cell masks.

A partition is a nondecreasing sequence of cut times starting at 0 whose
last cut reaches the path horizon.  An exclusion set S is a finite set of
times, given for a block of paths as (row, time) pairs; cell
k = (tau_{k-1}, tau_k] of a row is excluded when it contains a time of that
row's S.  The half-open convention makes "S absorbs the jumps" exact for
grid paths: a jump realized at a cut time belongs to the cell whose
increment contains it.
"""

from __future__ import annotations

import numpy as np


class Partition:
    def __init__(self, cut_times):
        cuts = np.ascontiguousarray(np.asarray(cut_times, dtype=np.float64))
        if cuts.ndim != 1 or cuts.size < 2:
            raise ValueError("need at least two cut times")
        if cuts[0] != 0.0:
            raise ValueError("cut times must start at 0")
        if np.any(np.diff(cuts) < 0):
            raise ValueError("cut times must be nondecreasing")
        cuts.setflags(write=False)
        self.cut_times = cuts

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.cut_times)))

    @property
    def n_cells(self) -> int:
        return self.cut_times.size - 1


def dyadic_partition(horizon: float, level: int) -> Partition:
    """Cut times j * horizon * 2^-level, j = 0..2^level."""
    if level < 0:
        raise ValueError("level must be >= 0")
    n = 1 << level
    return Partition(cut_times=np.arange(n + 1) * (horizon / n))


def dyadic_partition_on_grid(times: np.ndarray, level: int) -> Partition:
    """Dyadic cuts snapped to an existing uniform grid (exact grid times)."""
    n_steps = times.size - 1
    n = 1 << level
    if n_steps % n != 0:
        raise ValueError(f"grid with {n_steps} steps is not divisible into 2^{level} cells")
    return Partition(cut_times=times[:: n_steps // n])


def inclusion_rows(partition: Partition, t: float, n: int, s_rows=(), s_times=()) -> np.ndarray:
    """(n, K) inclusion masks: row r keeps cell k = 1..K when tau_k < t and
    (tau_{k-1}, tau_k] misses row r's S, the s_times[j] with s_rows[j] == r."""
    cuts = partition.cut_times
    mask = np.repeat((cuts[1:] < t)[None, :], n, axis=0)
    # s lands in cell j iff cuts[j-1] < s <= cuts[j]; 'left' search gives
    # the smallest j with cuts[j] >= s, which is exactly that cell
    j = np.searchsorted(cuts, np.asarray(s_times, dtype=np.float64), side="left")
    hit = (j >= 1) & (j <= partition.n_cells)
    mask[np.asarray(s_rows, dtype=np.intp)[hit], j[hit] - 1] = False
    return mask


class RefinementLadder:
    def __init__(self, levels):
        if not levels:
            raise ValueError("ladder must contain at least one level")
        meshes = [p.mesh for p in levels]
        if any(b >= a for a, b in zip(meshes, meshes[1:])):
            raise ValueError("ladder meshes must be strictly decreasing")
        self.levels = tuple(levels)

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    @property
    def meshes(self) -> list:
        return [p.mesh for p in self.levels]

    @classmethod
    def dyadic(cls, horizon: float, l_min: int, l_max: int, grid_times=None) -> "RefinementLadder":
        """Dyadic levels l_min..l_max, snapped to grid_times when given."""
        if l_min > l_max:
            raise ValueError("l_min must be <= l_max")
        if grid_times is not None:
            levels = [dyadic_partition_on_grid(grid_times, level) for level in range(l_min, l_max + 1)]
        else:
            levels = [dyadic_partition(horizon, level) for level in range(l_min, l_max + 1)]
        return cls(levels=tuple(levels))
