"""Partition sums: covariation approximants, jump sums, the included-cell
(z.c.q.v.) statistic and left-point Ito sums.

Every compensated sum goes through `_kernels.kahan_rows`, one loop over the
cells of a block of paths with numpy operations across the rows, so a path
summed in a block of 64 gets the same bits as a path summed alone.
`cell_sums` adds dX dY (or |dX dY|) over each row's kept cells and `ito_rows`
forms each row's left-point Ito running sums; both take (n, K+1) blocks of
values at the cuts and form their terms a slab of columns at a time.
`zcqv_ladder` runs the included-cell statistic of a whole block along every
ladder level, reading the values at the cuts as a strided view.  The scalar
functions (qv_partition, zcqv_statistic, cross_statistic, ito_integral,
ito_cumulative, jump_sum) are one-row calls of the same code.

covariation_ladder sweeps a whole t-grid for every row pair of two
ensembles at once, one ladder level at a time.  Each level slices both value
blocks at the cut indices and forms the products of increments once.  The
stopped sums are one cumulative sum along the path axis plus one boundary
cell, under the stopped-value semantics; the included sums zero the cells
that hold a time of S in place and take a second cumulative sum.  S is the
union of both paths' jump times under the threshold, read off the mark and
value blocks.  The jump sums come from one kernel pass over each row's jump
terms in time order: the running sum after the last jump <= t is jump_sum
at t, bit for bit, because Kahan summation in array order computes prefixes.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .partitions import ExclusionSet, Partition, RefinementLadder, inclusion_mask, inclusion_rows
from .paths import PathEnsemble, SamplePath


def _check_pair(x: SamplePath, y: SamplePath) -> None:
    if x.horizon != y.horizon:
        raise ValueError("paths must share the horizon")


def _stopped_values(path: SamplePath, cuts: np.ndarray, t: float) -> np.ndarray:
    stopped = np.minimum(np.minimum(cuts, t), path.horizon)
    return path.eval_many(stopped)


def _require_cover(partition: Partition, t: float) -> None:
    if partition.cut_times[-1] < t:
        raise ValueError("partition does not cover the evaluation time")


# ---------------------------------------------------------------------------
# block sums


def cell_sums(xv: np.ndarray, yv: np.ndarray, keep=None, absolute: bool = False) -> np.ndarray:
    """Compensated sum of dX dY (|dX dY| when absolute) over each row's cells.

    xv, yv: (n, K+1) values at the cuts; keep: optional (n, K) mask of the
    cells each row sums.  Returns the (n,) sums.
    """

    def terms(a, b):
        d = xv[:, a + 1 : b + 1] - xv[:, a:b]
        d *= yv[:, a + 1 : b + 1] - yv[:, a:b]
        return np.abs(d, out=d) if absolute else d

    return _kernels.kahan_rows(terms, (len(xv), xv.shape[1] - 1), keep)


def ito_rows(yv: np.ndarray, eta) -> np.ndarray:
    """Left-point Ito running sums along each row of the (n, K+1) values yv.

    eta(a, b) gives the integrand at left cuts a .. b-1, as an (n, b - a)
    block or one row that broadcasts.  Returns (n, K+1): column 0 is 0.0 and
    column k the sum of eta_{j-1} (Y_j - Y_{j-1}) over j <= k.
    """
    n, width = yv.shape
    out = np.empty((n, width))
    out[:, 0] = 0.0
    terms = lambda a, b: eta(a, b) * (yv[:, a + 1 : b + 1] - yv[:, a:b])
    _kernels.kahan_rows(terms, (n, width - 1), out=out[:, 1:])
    return out


def grid_index(times: np.ndarray, cut_times: np.ndarray):
    """Grid indices of X at the cuts (clamped to the horizon), as
    SamplePath.eval_many reads them: a slice when they are evenly strided,
    so blocks are sliced without a copy."""
    cuts = np.minimum(cut_times, times[-1])
    idx = np.searchsorted(times, cuts, side="right") - 1
    step = int(idx[1] - idx[0])
    if step > 0 and np.array_equal(idx, np.arange(idx[0], idx[-1] + 1, step)):
        return idx, slice(int(idx[0]), int(idx[-1]) + 1, step)
    return idx, idx


def zcqv_ladder(x, times, ladder, t: float, s_rows=(), s_times=(), y=None, absolute: bool = False) -> np.ndarray:
    """Included-cell statistic of every row at every ladder level: (n, n_levels).

    x (and y) are (n, n_grid) value blocks on the grid `times`.  Row r's S
    holds s_times[j] for each j with s_rows[j] == r.  A level's statistic is
    the sum of dX dY (|dX dY| when absolute) over the cells with tau_k < t
    that miss S, one kernel pass per level; without y it is sum (dX)^2.
    """
    y = x if y is None else y
    out = np.empty((len(x), len(ladder)))
    for i, part in enumerate(ladder):
        keep = inclusion_rows(part, t, len(x), s_rows, s_times)
        _, cut = grid_index(times, part.cut_times)
        out[:, i] = cell_sums(x[:, cut], y[:, cut], keep, absolute)
    return out


# ---------------------------------------------------------------------------
# one-path sums


def qv_partition(x: SamplePath, y: SamplePath, partition: Partition, t: float) -> float:
    """Covariation along the partition with stopped increments.

    Sum over cells of (X_{tau_k ^ t} - X_{tau_{k-1} ^ t}) (Y_... ); cells at
    or beyond t contribute exactly zero.
    """
    _check_pair(x, y)
    _require_cover(partition, t)
    xv = _stopped_values(x, partition.cut_times, t)
    yv = _stopped_values(y, partition.cut_times, t)
    return float(cell_sums(xv[None], yv[None])[0])


def jump_sum(x: SamplePath, y: SamplePath, t: float, threshold: float) -> float:
    """Sum of dX_s dY_s over recorded jump times s <= t of either path."""
    _check_pair(x, y)
    times = np.union1d(x.jump_times(threshold), y.jump_times(threshold))
    times = times[times <= t]
    if times.size == 0:
        return 0.0
    dx = x.eval_many(times) - x.eval_left_many(times)
    dy = y.eval_many(times) - y.eval_left_many(times)
    return kahan_sum(dx * dy)


def kahan_sum(terms: np.ndarray) -> float:
    """Compensated sum in array order (the kernels' loop, one row)."""
    return float(_kernels.kahan_cumsum(terms)[-1])


def zcqv_statistic(x: SamplePath, partition: Partition, exclusions: ExclusionSet, t: float) -> float:
    """Included-cell sum of squared increments: the zero-continuous-QV
    diagnostic.  Vanishes across a refining ladder iff the path has no
    continuous quadratic variation once S absorbs its jumps."""
    _require_cover(partition, t)
    mask = inclusion_mask(partition, exclusions, t)
    xv = x.eval_many(np.minimum(partition.cut_times, x.horizon))
    return float(cell_sums(xv[None], xv[None], mask[None])[0])


def cross_statistic(x: SamplePath, y: SamplePath, partition: Partition, exclusions: ExclusionSet, t: float) -> float:
    """Included-cell sum of |dX dY| (covariation-existence diagnostic)."""
    _check_pair(x, y)
    _require_cover(partition, t)
    mask = inclusion_mask(partition, exclusions, t)
    cuts = np.minimum(partition.cut_times, x.horizon)
    xv = x.eval_many(cuts)
    yv = y.eval_many(cuts)
    return float(cell_sums(xv[None], yv[None], mask[None], absolute=True)[0])


def ito_integral(integrand: np.ndarray, y: SamplePath, partition: Partition, t: float) -> float:
    """Left-point (Ito) Riemann sum: sum_k eta_{k-1} (Y_{tau_k ^ t} - Y_{tau_{k-1} ^ t}).

    `integrand` supplies eta at every left cut time (length = number of cells).
    """
    return float(ito_cumulative(integrand, y, partition, t)[-1])


def ito_cumulative(integrand: np.ndarray, y: SamplePath, partition: Partition, t: float) -> np.ndarray:
    _require_cover(partition, t)
    eta = np.asarray(integrand, dtype=np.float64)
    if eta.size != partition.n_cells:
        raise ValueError("integrand must supply one value per partition cell")
    yv = _stopped_values(y, partition.cut_times, t)
    return ito_rows(yv[None], lambda a, b: eta[a:b])[0]


# ---------------------------------------------------------------------------
# ladder sweep and report


_STATS = ("full", "jumps", "continuous_part", "zcqv")


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


@dataclass(frozen=True)
class CovariationReport:
    """Per-path, per-level, per-t statistics for an ensemble of (X, Y) pairs.

    full, jumps, continuous_part and zcqv are (n_paths, n_levels, n_t);
    full = included + excluded by construction; continuous_part = full - jumps.
    """

    levels: tuple
    meshes: tuple
    t_grid: np.ndarray
    full: np.ndarray
    jumps: np.ndarray
    continuous_part: np.ndarray
    zcqv: np.ndarray

    @classmethod
    def concat(cls, reports) -> "CovariationReport":
        """Stack reports on the same ladder and t-grid along the path axis."""
        first = reports[0]
        stack = {name: np.concatenate([getattr(r, name) for r in reports]) for name in _STATS}
        return cls(levels=first.levels, meshes=first.meshes, t_grid=first.t_grid, **stack)

    def median(self) -> "CovariationReport":
        """One-row report of the per-cell medians over paths."""
        med = {name: path_median(getattr(self, name)) for name in _STATS}
        return CovariationReport(levels=self.levels, meshes=self.meshes, t_grid=self.t_grid, **med)

    def to_csv(self) -> str:
        if self.full.shape[0] != 1:
            raise ValueError("to_csv needs a one-row report; take the median first")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["level", "mesh", "t", "full_sum", "jump_sum", "continuous_part", "zcqv_stat"])
        for i, lev in enumerate(self.levels):
            for j, t in enumerate(self.t_grid):
                w.writerow(
                    [
                        lev,
                        repr(float(self.meshes[i])),
                        repr(float(t)),
                        repr(float(self.full[0, i, j])),
                        repr(float(self.jumps[0, i, j])),
                        repr(float(self.continuous_part[0, i, j])),
                        repr(float(self.zcqv[0, i, j])),
                    ]
                )
        return buf.getvalue()


def jump_grid(ens: PathEnsemble, threshold: float) -> np.ndarray:
    """(n_paths, n_grid) mask of SamplePath.jump_times(threshold) on the grid."""
    sel = ens.marks.copy()
    if threshold < np.inf:  # |dX| > inf never holds for finite values
        dx = np.diff(ens.values, axis=1)
        sel[:, 1:] |= np.abs(dx, out=dx) > threshold
    return sel


def _cut_index(times: np.ndarray, cut_times: np.ndarray):
    """grid_index for cuts that must all be grid times."""
    idx, cut = grid_index(times, cut_times)
    if np.any(times[idx] != np.minimum(cut_times, times[-1])):
        raise ValueError("covariation_ladder needs every cut time on the path grid")
    return idx, cut


def _jump_rows(x: PathEnsemble, y: PathEnsemble, sel: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """jump_sum(x_r, y_r, t, threshold) for every row r and t, bit for bit.

    Row r's jump terms, in time order, fill the first cells of row r of an
    (n, J) block, and one kernel pass keeps every row's running sums.  The
    value at t is the running sum after the last jump <= t, which is the
    compensated sum of exactly those terms in the same order.
    """
    rows, gs = np.nonzero(sel)  # row-major: time order within each row
    left = np.maximum(gs - 1, 0)
    terms = (x.values[rows, gs] - x.values[rows, left]) * (y.values[rows, gs] - y.values[rows, left])
    n, n_grid = sel.shape
    counts = np.bincount(rows, minlength=n)
    width = int(counts.max(initial=0))
    keep = np.arange(width) < counts[:, None]
    block = np.zeros((n, width))
    block[keep] = terms
    # prefix[r, m]: row r's running sum after its first m jumps
    prefix = np.zeros((n, width + 1))
    _kernels.kahan_rows(lambda a, b: block[:, a:b], (n, width), keep, out=prefix[:, 1:])
    # row r's jumps at grid times <= t sit at flat positions [first[r], pos)
    flat = rows * n_grid + gs
    first = np.searchsorted(flat, np.arange(n) * n_grid)
    upto = np.searchsorted(x.times, t_grid, side="right")
    pos = np.searchsorted(flat, np.arange(n)[:, None] * n_grid + upto[None, :])
    return np.take_along_axis(prefix, pos - first[:, None], axis=1)


def _ladder_sums(x: PathEnsemble, y: PathEnsemble, ladder: RefinementLadder, t_grid, sel) -> tuple:
    """(stopped, included) sums, each (n_paths, n_levels, n_t); S is `sel`."""
    n, times = len(x), x.times
    full = np.empty((n, len(ladder), t_grid.size))
    zc = np.empty_like(full)
    excl_rows, excl_grid = np.nonzero(sel)
    at_t = np.searchsorted(times, t_grid, side="right") - 1
    xt = x.values[:, at_t]
    yt = y.values[:, at_t]
    # one pair of buffers sized for the finest level, reused by every level
    k_max = max(part.n_cells for part in ladder)
    prod_buf = np.empty((n, k_max))
    cum_buf = np.empty((n, k_max + 1))
    cum_buf[:, 0] = 0.0
    for i, part in enumerate(ladder):
        cut_times = part.cut_times
        k = part.n_cells
        idx, cut = _cut_index(times, cut_times)
        xv = x.values[:, cut]
        yv = y.values[:, cut]
        prod = np.subtract(xv[:, 1:], xv[:, :-1], out=prod_buf[:, :k])
        cum = cum_buf[:, : k + 1]
        # dY goes through the cumulative-sum buffer before it is filled
        prod *= np.subtract(yv[:, 1:], yv[:, :-1], out=cum[:, 1:])
        np.cumsum(prod, axis=1, out=cum[:, 1:])
        j = np.clip(np.searchsorted(cut_times, t_grid, side="right") - 1, 0, k)
        boundary = (xt - xv[:, j]) * (yt - yv[:, j])
        boundary[:, j == k] = 0.0
        full[:, i] = cum[:, j] + boundary
        # cell c (1-based) = (tau_{c-1}, tau_c] holds grid time g iff c is
        # the 'left' search position of g among the cut indices
        cell = np.searchsorted(idx, excl_grid, side="left")
        hit = (cell >= 1) & (cell <= k)
        prod[excl_rows[hit], cell[hit] - 1] = 0.0
        np.cumsum(prod, axis=1, out=cum[:, 1:])
        zc[:, i] = cum[:, np.searchsorted(cut_times[1:], t_grid, side="left")]
    return full, zc


def covariation_ladder(
    x: PathEnsemble,
    y: PathEnsemble,
    ladder: RefinementLadder,
    t_grid: np.ndarray,
    threshold: float = np.inf,
    levels: tuple | None = None,
) -> CovariationReport:
    """Stopped and included covariation sums of every (x_r, y_r) row pair
    along every ladder level at every t in t_grid.

    S is the union of both paths' jump times under `threshold`.  Every cut
    must be a grid time.  Results equal the per-path scalar definitions bit
    for bit: with tau_j <= t < tau_{j+1} the stopped sum is the cumulative
    sum through cell j plus the boundary term (X_t - X_{tau_j})(Y_t - Y_{tau_j});
    the included sum counts only cells with tau_k < t that miss S.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if x.values.shape != y.values.shape or not np.array_equal(x.times, y.times):
        raise ValueError("ensembles must hold the same number of paths on one grid")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0.0) or np.any(t_grid > x.horizon):
        raise ValueError(f"time outside [0, {x.horizon}]")
    sel = jump_grid(x, threshold) | jump_grid(y, threshold)
    full, zc = _ladder_sums(x, y, ladder, t_grid, sel)
    jumps = np.repeat(_jump_rows(x, y, sel, t_grid)[:, None, :], len(ladder), axis=1)
    return CovariationReport(
        levels=tuple(levels) if levels is not None else tuple(range(len(ladder))),
        meshes=tuple(ladder.meshes),
        t_grid=t_grid,
        full=full,
        jumps=jumps,
        continuous_part=full - jumps,
        zcqv=zc,
    )


def ucp_exceedance(full: np.ndarray, eps: float) -> list:
    """Fraction of paths with sup_t |full_level - full_finest| > eps, per level.

    full is the (n_paths, n_levels, n_t) array of a CovariationReport.
    """
    dev = np.max(np.abs(full - full[:, -1:, :]), axis=2)
    return (np.count_nonzero(dev > eps, axis=0) / full.shape[0]).tolist()
