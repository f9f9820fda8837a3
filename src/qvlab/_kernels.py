"""The one compensated (Kahan) summation loop, run across the rows of a block.

`kahan_rows` walks the cells of an (n, K) block of terms once, left to
right, and updates every row's compensated state (s, c) with numpy
operations across the rows.  Each row goes through exactly the binary64
operations of the scalar loop

    t1 = term - c;  t2 = s + t1;  c = (t2 - s) - t1;  s = t2

over its own terms in ascending cell order (Kahan, CACM 1965; Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 4), so every
row's sums equal those of summing it alone, bit for bit.  A cell that a
row's keep mask drops leaves that row's state untouched, exactly as
skipping the term does.  Callers supply the terms SLAB columns at a time,
so no full-size block of terms is ever held.
"""

import numpy as np

BACKEND = "python"  # read by the benchmark's provenance record

SLAB = 512


def kahan_rows(terms, shape, keep=None, out=None) -> np.ndarray:
    """Compensated sums along each row of an (n, K) block of terms.

    terms(a, b) returns the (n, b - a) terms of cells a .. b-1; it is called
    for consecutive slabs of at most SLAB cells.  keep: optional (n, K) bool
    mask of the cells each row sums.  out: optional (n, K) array; out[:, k]
    receives each row's running sum after cell k.  Returns the (n,) totals.
    """
    n, k = shape
    keep = None if keep is None else np.asarray(keep, dtype=bool)
    s, c = np.zeros(n), np.zeros(n)
    for a in range(0, k, SLAB):
        b = min(a + SLAB, k)
        slab = terms(a, b)
        kept = None if keep is None else keep[:, a:b]
        every = [True] * (b - a) if kept is None else kept.all(axis=0).tolist()
        sums = []
        for j, col in enumerate(slab.T):
            t1 = col - c
            t2 = s + t1
            if every[j]:
                c = (t2 - s) - t1
                s = t2
            else:
                # rows that drop this cell keep their (s, c) as they were
                mask = kept[:, j]
                c = np.where(mask, (t2 - s) - t1, c)
                s = np.where(mask, t2, s)
            sums.append(s)
        if out is not None:
            out[:, a:b] = np.array(sums).T
    return s


def kahan_cumsum(terms: np.ndarray) -> np.ndarray:
    """Compensated running sums of the 1-D `terms`: a one-row `kahan_rows`.

    Returns len(terms) + 1 values: entry 0 is 0.0 and entry k the sum of the
    first k terms, so the last entry is the compensated total.
    """
    terms = np.asarray(terms, dtype=np.float64)
    out = np.zeros((1, terms.size + 1))
    kahan_rows(lambda a, b: terms[None, a:b], (1, terms.size), out=out[:, 1:])
    return out[0]
