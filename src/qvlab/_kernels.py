"""Faithfully rounded row sums by error-free extraction.

`row_sums` sums every prefix of each row of an (n, K) block of terms with
AccSum (Rump, Ogita and Oishi, "Accurate floating-point summation part I:
faithful rounding", SIAM J. Sci. Comput. 31(1), 2008, Algorithm 4.5); a
row's total is its last prefix.  For a row whose largest |term| is below
2^E and that sums c terms, sigma = 2^(m + E) with 2^m >= c + 2.  Then q = (sigma + p) - sigma and p - q are exact, and every
running sum of the q is exact, so one np.cumsum gives them.  A running sum
t is final once |t| reaches 2^(2m+1) eps sigma, or once its remainders are
all zero (as they are when sigma reaches realmin): it is then t + (tau2 +
the running sum of the remainders), one of the two doubles next to the
exact sum.  The others take another extraction from the remainders, with
sigma scaled by 2^m eps; on real data they are a few short prefixes.

sigma depends only on the row's own terms and kept-cell count, so a row's
sums are the same bits in any block, slab or worker count.  A cell the keep
mask drops is summed as 0.0, so a NaN or inf in it never reaches the sum.
A row with a NaN or inf among its kept terms sums to NaN in every entry; a
finite row whose sigma would overflow raises NonFiniteError, which carries
the row.  The terms come a slab of rows at a time, at most CELLS cells (or
one row) each.
"""

import numpy as np

from .errors import NonFiniteError

BACKEND = "python"  # read by the benchmark's provenance record

CELLS = 2**13  # cells per slab: 64 KB temporaries, which keep peak RSS flat


def row_sums(terms, shape, keep=None, out=None) -> np.ndarray:
    """Faithfully rounded running sums along each row of an (n, K) block.

    terms(a, b) returns the (b - a, K) terms of rows a .. b-1; it is called
    for consecutive slabs of rows.  keep: optional (n, K) mask of the cells
    each row sums.  out: optional (n, K) array; out[:, k] receives each
    row's running sum after cell k.  Returns the (n,) totals.
    """
    n, k = shape
    totals = np.zeros(n)
    if k == 0:
        return totals
    keep = None if keep is None else np.asarray(keep, dtype=bool)
    m = np.full(n, np.frexp(k + 1.0)[1])  # 2^m >= count + 2 for a row that sums count cells
    step = max(1, CELLS // k)
    for a in range(0, n, step):
        b = min(a + step, n)
        p = terms(a, b)
        if keep is not None:
            p = np.where(keep[a:b], p, 0.0)
            m[a:b] = np.frexp(np.count_nonzero(keep[a:b], axis=1) + 1.0)[1]
        sums = _accsum(p, m[a:b], a)
        if out is not None:
            out[a:b] = sums
        totals[a:b] = sums[:, -1]
    return totals


def _accsum(p: np.ndarray, m: np.ndarray, first: int) -> np.ndarray:
    """AccSum of every prefix of each row of p: the (n, K) running sums.
    Row r, row first + r of the caller's block, holds fewer than 2^m[r] - 1
    nonzero terms."""
    top = np.max(np.abs(p), axis=1)
    bad = ~np.isfinite(top)
    if bad.any():
        p = np.where(bad[:, None], 0.0, p)
        top[bad] = 0.0
    e = np.frexp(top)[1] + m  # sigma = 2^e >= 2^m max |p|
    if e.max() > 1023:
        r = int(np.argmax(e > 1023))
        err = NonFiniteError(f"terms up to {float(top[r])!r} in row {first + r} are too large to sum exactly")
        err.row = first + r
        raise err
    q, p = _extract(p, e)
    res = np.cumsum(p, axis=1)
    t = np.cumsum(q, axis=1)
    res += t
    pending = _open_prefixes(t, p, e, m)
    rows = np.arange(len(p))
    while pending.any():
        # another extraction for the rows and leading cells with open prefixes
        live, w = _span(pending)
        rows, e, m = rows[live], e[live] + m[live] - 53, m[live]
        t, p, pending = t[live, :w], p[live, :w], pending[live, :w]
        q, p = _extract(p, e)
        tau = np.cumsum(q, axis=1)
        t1 = t + tau
        z = t1 - t
        tail = (t - (t1 - z)) + (tau - z)  # t + tau - t1, exactly (TwoSum)
        tail += np.cumsum(p, axis=1)
        done = pending & ~_open_prefixes(t1, p, e, m)
        block = res[rows, :w]
        np.copyto(block, t1 + tail, where=done)
        res[rows, :w] = block
        pending &= ~done
        t = t1
    if bad.any():
        res[bad] = np.nan
    return res


def _extract(p, e) -> tuple:
    """ExtractVector: (q, p - q) with q = (sigma + p) - sigma and sigma = 2^e
    for each row; both parts are exact."""
    sigma = np.ldexp(1.0, e)[:, None]
    q = sigma + p
    q -= sigma
    return q, p - q


def _open_prefixes(t, p, e, m) -> np.ndarray:
    """The running sums t that AccSum's stopping rule leaves open: |t| is
    below 2^(2m+1) eps sigma and some remainder p up to that column is not
    zero.  (Once sigma = 2^e is at most realmin, every remainder is zero.)"""
    open_ = np.abs(t) < np.ldexp(1.0, e + 2 * m - 52)[:, None]
    if open_.any():
        live, w = _span(open_)
        open_[live, :w] &= np.maximum.accumulate(np.abs(p[live, :w]), axis=1) > 0
    return open_


def _span(mask):
    """Rows with a True entry, and the columns up to the last one."""
    return np.flatnonzero(mask.any(axis=1)), 1 + int(np.flatnonzero(mask.any(axis=0))[-1])
