"""Partition-sum kernels: one compensated (Kahan) prefix-sum loop.

Every sum is accumulated in ascending cell order by `kahan_cumsum`; the four
kernels only form their terms with numpy first.  The results equal a scalar
loop that forms each term inside the Kahan loop bit for bit: each cell goes
through the same binary64 operations, and dropping a masked-out cell leaves
the compensated state exactly as skipping it does.
"""

import numpy as np

BACKEND = "python"


def kahan_cumsum(terms: np.ndarray) -> np.ndarray:
    """Compensated running sums of `terms` in array order.

    Returns len(terms) + 1 values: entry 0 is 0.0 and entry k the sum of the
    first k terms, so the last entry is the compensated total.
    """
    s = 0.0
    c = 0.0
    out = [s]
    for term in terms.tolist():
        t1 = term - c
        t2 = s + t1
        c = (t2 - s) - t1
        s = t2
        out.append(s)
    return np.array(out)


def qv_sum(x, y):
    """Sum of (x[k]-x[k-1])*(y[k]-y[k-1]) over k = 1..n-1."""
    return float(kahan_cumsum(np.diff(x) * np.diff(y))[-1])


def masked_qv_sum(x, y, mask):
    """As qv_sum but only over cells k with mask[k-1] nonzero."""
    return float(kahan_cumsum((np.diff(x) * np.diff(y))[np.asarray(mask, dtype=bool)])[-1])


def masked_abs_sum(x, y, mask):
    """Sum of |dx_k * dy_k| over cells with mask[k-1] nonzero."""
    return float(kahan_cumsum(np.abs(np.diff(x) * np.diff(y))[np.asarray(mask, dtype=bool)])[-1])


def ito_cumsum(eta, y, out):
    """Left-point Riemann sums: out[k] = sum_{j<=k} eta[j-1]*(y[j]-y[j-1]).

    ``out`` has length len(y); out[0] = 0.  The Kahan carry persists across
    cells so the final entry equals the scalar compensated sum.
    """
    out[:] = kahan_cumsum(eta * np.diff(y))
    return out
