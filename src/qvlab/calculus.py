"""Partition sums on blocks of paths: covariation approximants, jump sums,
the included-cell (z.c.q.v.) statistic and left-point Ito sums.

The suites' included-cell and Ito sums go through `_kernels.row_sums`,
which rounds each row's sums faithfully from that row's terms alone, so a
path summed in a block of 64 gets the same bits as a path summed alone, and
a one-path sum is a one-row block.  `cell_sums` adds dX dY (or |dX dY|) over
each row's kept cells and `ito_rows` forms each row's left-point Ito running
sums; both take (n, K+1) blocks of values at the cuts and form their terms a
slab of rows at a time.  `zcqv_ladder` runs the included-cell statistic of a
whole block along every ladder level, reading the values at the cuts as a
strided view.  S is a (paths, grid) mask throughout, and a ladder is built on
the grid of the values it is run on: both ladder functions refuse values on
a grid of another size.

covariation_ladder sweeps a whole t-grid for every row of an ensemble at
once and writes each row's sums in place, into CovariationSums that the
caller may hold for a whole ensemble and fill block by block.  The rows go
a slab at a time, SLAB_CELLS values each, and every ladder level in turn
slices the slab at the cut indices and forms the squared increments once,
in one pair of slab-sized buffers.  The stopped sums are one cumulative sum
along the path axis plus one boundary cell, under the stopped-value
semantics; the included sums zero the cells that hold a grid column of S in
place and take a second cumulative sum.  S is each path's jump times under
the threshold, read off the mark and value blocks as one grid mask.
The jump sums do not depend on the level, so each row holds them once; they
are the running sums of each row's jump terms in time order: the jump sum
at t is the running sum after the last jump <= t.  The stopped, included
and jump sums of covariation_ladder are all plain left-to-right running
sums, one rule for all three, so on a pure-jump path at a level where each
cell holds at most one jump, full - jumps is exactly 0.0.  The continuous
part, full - jumps, is formed only where CovariationSums.median takes its
medians, a level at a time, and CovariationSums.to_csv writes them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _kernels
from .partitions import RefinementLadder
from .paths import PathEnsemble


# ---------------------------------------------------------------------------
# block sums


def cell_sums(xv: np.ndarray, yv: np.ndarray, keep=None, absolute: bool = False) -> np.ndarray:
    """Faithful sum of dX dY (|dX dY| when absolute) over each row's cells.

    xv, yv: (n, K+1) values at the cuts; keep: optional (n, K) mask of the
    cells each row sums.  Returns the (n,) sums.
    """

    def terms(a, b):
        d = xv[a:b, 1:] - xv[a:b, :-1]
        d *= yv[a:b, 1:] - yv[a:b, :-1]
        return np.abs(d, out=d) if absolute else d

    return _kernels.row_sums(terms, (len(xv), xv.shape[1] - 1), keep)


def ito_rows(yv: np.ndarray, eta) -> np.ndarray:
    """Left-point Ito running sums along each row of the (n, K+1) values yv.

    eta(a, b) gives the integrand of rows a .. b-1 at every left cut, as a
    (b - a, K) block or one row that broadcasts.  Returns (n, K+1): column 0
    is 0.0 and column k the sum of eta_{j-1} (Y_j - Y_{j-1}) over j <= k.
    """
    n, width = yv.shape
    out = np.empty((n, width))
    out[:, 0] = 0.0
    terms = lambda a, b: eta(a, b) * (yv[a:b, 1:] - yv[a:b, :-1])
    _kernels.row_sums(terms, (n, width - 1), out=out[:, 1:])
    return out


def zcqv_ladder(x, ladder: RefinementLadder, t: float, s=None, y=None, absolute: bool = False) -> np.ndarray:
    """Included-cell statistic of every row at every ladder level: (n, n_levels).

    x (and y) are (n, n_grid) value blocks on the ladder's grid and s, when
    given, the (n, n_grid) mask of each row's S.  A level's statistic is the
    sum of dX dY (|dX dY| when absolute) over the cells with tau_k < t that
    miss S, one kernel pass per level; without y it is sum (dX)^2.
    """
    ladder.require_grid(x.shape[1])
    y = x if y is None else y
    rows, cols = np.nonzero(s) if s is not None else (np.empty(0, np.intp),) * 2
    out = np.empty((len(x), len(ladder)))
    for i, lev in enumerate(ladder):
        keep = np.repeat((lev.cut_times[1:] < t)[None, :], len(x), axis=0)
        keep[lev.cells(rows, cols)] = False
        out[:, i] = cell_sums(x[:, lev.cut], y[:, lev.cut], keep, absolute)
    return out


# ---------------------------------------------------------------------------
# ladder sweep and report


def path_median(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=0, keepdims=True), bit for bit, without numpy.ma.

    numpy's median imports numpy.ma on its first call (its NaN check asks
    np.ma.isMaskedArray), a start-up cost for every qv run.  This takes
    numpy's own steps: partition at the middle position(s) and the last,
    average the middle slice with np.mean (so -0.0 comes out as 0.0, as in
    numpy), and give the last sorted value where it is NaN.
    """
    n = a.shape[0]
    k = n // 2
    part = np.partition(a, [k, -1] if n % 2 else [k - 1, k, -1], axis=0)
    med = np.mean(part[k - 1 + n % 2 : k + 1], axis=0, keepdims=True)
    return _nan_where_last_is_nan(med, part)


def path_percentile(a: np.ndarray, q: float) -> np.ndarray:
    """np.percentile(a, q, axis=0, keepdims=True) for a Python number q,
    bit for bit, without numpy.ma (numpy's np.unique of the partition
    positions imports it).

    numpy's linear method: virtual index v = (n-1) q/100; partition at 0,
    the last position, floor(v) and floor(v)+1 (both the last position when
    v >= n-1, where the weight counts from -1 as in numpy); interpolate with
    numpy's _lerp, which works from the upper value when the weight is at
    least 0.5; and give the last sorted value where it is NaN.
    """
    n = a.shape[0]
    v = (n - 1) * (q / 100)
    lo = -1 if v >= n - 1 else math.floor(v)
    hi = -1 if lo == -1 else lo + 1
    part = np.partition(a, sorted({0, -1, lo, hi}), axis=0)
    below, above = part[[lo]], part[[hi]]
    t = v - lo
    diff = above - below
    out = np.add(below, diff * t)
    if t >= 0.5:
        np.subtract(above, diff * (1 - t), out=out)
    return _nan_where_last_is_nan(out, part)


def _nan_where_last_is_nan(stat: np.ndarray, part: np.ndarray) -> np.ndarray:
    """numpy's NaN rule for order statistics: NaN sorts last, so a lane
    whose last partitioned value is NaN gives that value."""
    last = part[-1:]
    np.copyto(stat, last, where=np.isnan(last))
    return stat


class Medians(NamedTuple):
    """Per-cell medians over paths of CovariationSums, each (n_levels, n_t):
    continuous_part is the median of full - jumps."""

    full: np.ndarray
    jumps: np.ndarray
    continuous_part: np.ndarray
    zcqv: np.ndarray


class CovariationSums(NamedTuple):
    """Per-path quadratic variation sums of an ensemble.

    full and zcqv are (n_paths, n_levels, n_t).  jumps is (n_paths, n_t):
    the jump sums do not depend on the level, so each path holds them once.
    full = included + excluded by construction, and the continuous part of
    a path at a level is full - jumps.
    """

    levels: tuple
    meshes: tuple
    t_grid: np.ndarray
    full: np.ndarray
    jumps: np.ndarray
    zcqv: np.ndarray

    @classmethod
    def empty(cls, n_paths: int, ladder: RefinementLadder, t_grid: np.ndarray) -> "CovariationSums":
        """Unfilled sums for n_paths rows, for covariation_ladder to fill."""
        shape = (n_paths, len(ladder), t_grid.size)
        return cls(
            levels=tuple(lev.level for lev in ladder),
            meshes=tuple(ladder.meshes),
            t_grid=t_grid,
            full=np.empty(shape),
            jumps=np.empty((n_paths, t_grid.size)),
            zcqv=np.empty(shape),
        )

    def rows(self, a: int, b: int) -> "CovariationSums":
        """Rows a .. b-1, as views: filling them fills these sums."""
        return self._replace(full=self.full[a:b], jumps=self.jumps[a:b], zcqv=self.zcqv[a:b])

    def median(self) -> Medians:
        """Per-cell medians over paths, one level at a time.

        A cell's median reads that cell's column alone, so taking a level at
        a time gives the bits of the whole-array median.  The jump sums are
        the same at every level, so their median is taken once and repeated;
        the continuous part's is the median of full - jumps, formed a level
        at a time.
        """
        n_levels = self.full.shape[1]
        full, cont, zcqv = (np.empty((n_levels, self.t_grid.size)) for _ in range(3))
        diff = np.empty_like(self.jumps)
        for i in range(n_levels):
            full[i] = path_median(self.full[:, i])[0]
            zcqv[i] = path_median(self.zcqv[:, i])[0]
            cont[i] = path_median(np.subtract(self.full[:, i], self.jumps, out=diff))[0]
        return Medians(full, np.repeat(path_median(self.jumps), n_levels, axis=0), cont, zcqv)

    def to_csv(self, medians: Medians) -> str:
        """covariation.csv: the medians, one line per (level, t).  Every
        field is an int or a float's repr, which holds no comma, quote or
        newline, so no field is quoted."""
        lines = ["level,mesh,t,full_sum,jump_sum,continuous_part,zcqv_stat"]
        ts = [repr(t) for t in self.t_grid.tolist()]
        for i, lev in enumerate(self.levels):
            head = f"{lev},{float(self.meshes[i])!r},"
            stats = (a[i].tolist() for a in medians)
            lines.extend(head + t + "," + ",".join(map(repr, row)) for t, *row in zip(ts, *stats))
        return "\n".join(lines) + "\n"


def jump_grid(ens: PathEnsemble, threshold: float) -> np.ndarray:
    """(n_paths, n_grid) mask of each row's jump times: the marked grid
    times, and each t_i, i >= 1, with |X_{t_i} - X_{t_{i-1}}| > threshold.

    The increments are formed a slab of about _kernels.CELLS cells at a time.
    """
    sel = ens.marks.copy()
    if threshold < np.inf:  # |dX| > inf never holds for finite values
        step = max(1, _kernels.CELLS // ens.times.size)
        for a in range(0, len(sel), step):
            dx = np.diff(ens.values[a : a + step], axis=1)
            sel[a : a + step, 1:] |= np.abs(dx, out=dx) > threshold
    return sel


def _jump_rows(x: PathEnsemble, sel: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Sum of (dX_s)^2 over row r's selected jump times s <= t, for every
    row r and t.

    Row r's jump terms, in time order, fill the first cells of row r of an
    (n, J) block, and one cumulative sum keeps every row's running sums: the
    plain left-to-right rule of the stopped sums, so where each cell holds
    one jump, full - jumps is exactly 0.0.  The cells past row r's jumps
    hold 0.0, and adding it changes none of the row's bits.  The value at t
    is the running sum after the last jump <= t.
    """
    rows, gs = np.nonzero(sel)  # row-major: time order within each row
    left = np.maximum(gs - 1, 0)
    d = x.values[rows, gs] - x.values[rows, left]
    terms = d * d
    n, n_grid = sel.shape
    counts = np.bincount(rows, minlength=n)
    width = int(counts.max(initial=0))
    block = np.zeros((n, width))
    block[np.arange(width) < counts[:, None]] = terms
    # prefix[r, m]: row r's running sum after its first m jumps
    prefix = np.zeros((n, width + 1))
    np.cumsum(block, axis=1, out=prefix[:, 1:])
    # row r's jumps at grid times <= t sit at flat positions [first[r], pos)
    flat = rows * n_grid + gs
    first = np.searchsorted(flat, np.arange(n) * n_grid)
    upto = np.searchsorted(x.times, t_grid, side="right")
    pos = np.searchsorted(flat, np.arange(n)[:, None] * n_grid + upto[None, :])
    return np.take_along_axis(prefix, pos - first[:, None], axis=1)


SLAB_CELLS = 4 * _kernels.CELLS  # cells per row slab of the ladder sweep: two 256 KB buffers


def _ladder_sums(x: PathEnsemble, ladder: RefinementLadder, t_grid, sel, full, zcqv) -> None:
    """Write the stopped and included sums of every row into full and zcqv,
    (n_paths, n_levels, n_t) each; S is `sel`.

    The rows go a slab at a time, every level in turn on each slab, through
    one pair of buffers sized for the finest level: a slab holds
    SLAB_CELLS // n_cells rows, 8 at 4096 cells.  Every step runs along
    the rows, so the bits do not depend on the slab height.  The height is
    measured (numpy 2.4, 2-core x86-64 VM): on qv at 4096 steps and 200
    paths, 8-row slabs peak at 39.1 MB RSS and sweep in the time of whole
    31-row blocks, which hold two 1 MB buffers and peak at 40.1 MB; 2-row
    slabs (CELLS cells) peak at 38.6 MB but add about 15 ms to the sweep's
    30 ms.
    """
    n = len(x)
    at_t = np.searchsorted(x.times, t_grid, side="right") - 1
    # per level: the cell before each t, whether t is past the last cut (no
    # boundary term), and the included sum's prefix at each t
    plan = []
    for lev in ladder:
        k = lev.n_cells
        j = np.clip(np.searchsorted(lev.cut_times, t_grid, side="right") - 1, 0, k)
        plan.append((k, lev, j, j == k, np.searchsorted(lev.cut_times[1:], t_grid, side="left")))
    k_max = max(p[0] for p in plan)
    h = min(n, max(1, SLAB_CELLS // k_max))
    prod_buf = np.empty((h, k_max))
    cum_buf = np.empty((h, k_max + 1))
    cum_buf[:, 0] = 0.0
    excl_rows, excl_grid = np.nonzero(sel)  # row-major: a slab's pairs are one run
    for a in range(0, n, h):
        b = min(a + h, n)
        xs = x.values[a:b]
        xt = xs[:, at_t]
        lo, hi = np.searchsorted(excl_rows, (a, b))
        s_rows, s_grid = excl_rows[lo:hi] - a, excl_grid[lo:hi]
        for i, (k, lev, j, past, zc_at) in enumerate(plan):
            xv = xs[:, lev.cut]
            prod = np.subtract(xv[:, 1:], xv[:, :-1], out=prod_buf[: b - a, :k])
            cum = cum_buf[: b - a, : k + 1]
            prod *= prod
            boundary = xt - xv[:, j]
            boundary *= boundary
            np.cumsum(prod, axis=1, out=cum[:, 1:])
            boundary[:, past] = 0.0
            np.add(cum[:, j], boundary, out=full[a:b, i])
            hit = lev.cells(s_rows, s_grid)
            if hit[0].size:  # else prod, and so cum, is unchanged
                prod[hit] = 0.0
                np.cumsum(prod, axis=1, out=cum[:, 1:])
            zcqv[a:b, i] = cum[:, zc_at]


def covariation_ladder(
    x: PathEnsemble,
    ladder: RefinementLadder,
    t_grid: np.ndarray,
    threshold: float = np.inf,
    out: CovariationSums | None = None,
) -> CovariationSums:
    """Stopped and included quadratic variation sums of every row x_r along
    every ladder level at every t in t_grid.

    S is each path's jump times under `threshold`, and the ladder must be
    built on the ensemble's grid.  With tau_j <= t < tau_{j+1} the stopped
    sum is the cumulative sum of (dX)^2 through cell j plus the boundary
    term (X_t - X_{tau_j})^2; the included sum counts only cells with
    tau_k < t that miss S.

    out: optional sums of len(x) rows to fill, such as rows a .. b-1 of a
    whole ensemble's CovariationSums.rows(a, b); without it the sums are
    allocated.  Beyond the blocks and out, the working set is the row slabs
    of _ladder_sums, S as a mask and the jump sums' (n, most jumps in a
    row) block.  So a caller that fills one ensemble's sums block by block,
    and frees each block before it generates the next, as qv does, holds
    one block, the per-path sums and the slabs.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    ladder.require_grid(x.times.size)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid > x.horizon):
        raise ValueError(f"time outside [0, {x.horizon}]")
    if out is None:
        out = CovariationSums.empty(len(x), ladder, t_grid)
    elif out.full.shape != (len(x), len(ladder), t_grid.size):
        raise ValueError(f"out holds {out.full.shape} sums, not {(len(x), len(ladder), t_grid.size)}")
    sel = jump_grid(x, threshold)
    _ladder_sums(x, ladder, t_grid, sel, out.full, out.zcqv)
    out.jumps[:] = _jump_rows(x, sel, t_grid)
    return out


def ucp_exceedance(full: np.ndarray, eps: float) -> list:
    """Fraction of paths with sup_t |full_level - full_finest| > eps, per level.

    full is the (n_paths, n_levels, n_t) array of CovariationSums; the
    deviations are formed a level at a time, in one (n_paths, n_t) buffer.
    """
    finest = full[:, -1]
    dev = np.empty_like(finest)
    out = []
    for i in range(full.shape[1]):
        np.abs(np.subtract(full[:, i], finest, out=dev), out=dev)
        out.append(np.count_nonzero(dev.max(axis=1) > eps) / full.shape[0])
    return out
