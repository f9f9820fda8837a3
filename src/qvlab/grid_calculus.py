"""Deterministic grid calculus: discrete integration by parts and the
shrinking symmetric-difference trace.

On a uniform grid with shifts aligned to whole cells, the integration by
parts identity is an exact consequence of Abel summation, so its residual is
a roundoff-level regression quantity rather than an approximation error.
The trace diagnostic evaluates the symmetric-difference pairing at a ladder
of shrinking widths; it vanishes in the limit and exactly once kinked and
time-varying features stop overlapping.
"""

from __future__ import annotations

import numpy as np

from .call_surface import BoxIndicator
from .functions import PathFunction


class GridFunction2D:
    """Samples of f(t, x) on uniform grids.

    The discrete time measure d_t f is the first difference along t: the
    cell (t_i, t_{i+1}] carries values[i+1] - values[i].  The left limit in
    t at row i+1 is row i.
    """

    def __init__(self, t_grid, x_grid, values):
        t = np.asarray(t_grid, dtype=float)
        x = np.asarray(x_grid, dtype=float)
        v = np.asarray(values, dtype=float)
        if v.shape != (t.size, x.size):
            raise ValueError("values must have shape (n_t, n_x)")
        for g, name in ((t, "t_grid"), (x, "x_grid")):
            d = np.diff(g)
            if g.size < 2 or not np.all(d > 0):
                raise ValueError(f"{name} must be increasing with at least 2 points")
            if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
                raise ValueError(f"{name} must be uniform")
        self.t_grid, self.x_grid, self.values = t, x, v

    @property
    def dx(self) -> float:
        return float(self.x_grid[1] - self.x_grid[0])

    @property
    def dt_cells(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    def x_band_zero(self, band: int) -> bool:
        if band <= 0:
            return True
        return bool(
            np.all(self.values[:, :band] == 0.0) and np.all(self.values[:, -band:] == 0.0)
        )

    def t_edges_zero(self) -> bool:
        return bool(np.all(self.values[0] == 0.0) and np.all(self.values[-1] == 0.0))

    @classmethod
    def sample(cls, f: PathFunction, t_grid, x_grid) -> "GridFunction2D":
        t_grid = np.asarray(t_grid, dtype=float)
        x_grid = np.asarray(x_grid, dtype=float)
        vals = np.asarray(f(t_grid[:, None], x_grid[None, :]), dtype=float)
        return cls(t_grid=t_grid, x_grid=x_grid, values=vals)


def _shift_cells(a: float, dx: float) -> int:
    m = a / dx
    m_int = int(round(m))
    if m_int == 0 or abs(m - m_int) > 1e-9:
        raise ValueError(f"shift {a!r} is not a nonzero multiple of the x-grid step {dx!r}")
    return m_int


def _shifted(values: np.ndarray, m: int) -> np.ndarray:
    """values[:, j+m] with zeros outside the grid."""
    out = np.zeros_like(values)
    if m > 0:
        out[:, :-m] = values[:, m:]
    elif m < 0:
        out[:, -m:] = values[:, :m]
    else:
        out[:] = values
    return out


def ibp_residual(f: GridFunction2D, g: GridFunction2D, a: float) -> float:
    """|LHS - RHS| of the discrete integration by parts identity.

    LHS pairs the forward difference of f (at the right time endpoint) with
    d_t g; RHS pairs the backward difference of the t-left-limit of g with
    d_t f.  For grid-aligned shifts and f compactly supported inside the
    grid (zero x-band of width >= |shift|, zero first and last t-rows) the
    two sides are equal by Abel summation, so the residual is pure roundoff.
    """
    if f.values.shape != g.values.shape:
        raise ValueError("f and g must share grids")
    m = _shift_cells(a, f.dx)
    if not f.x_band_zero(abs(m)):
        raise ValueError("f must vanish on an x-border band at least as wide as the shift")
    if not f.t_edges_zero():
        raise ValueError("f must vanish on the first and last time rows")
    dgt = g.dt_cells
    dft = f.dt_cells
    f_right = f.values[1:, :]
    g_left = g.values[:-1, :]
    nabla_f = (_shifted(f_right, m) - f_right) / a
    # backward difference of g at width a: (g(x) - g(x-a)) / a
    nabla_back_g = (g_left - _shifted(g_left, -m)) / a
    lhs = f.dx * float(np.sum(nabla_f * dgt))
    rhs = f.dx * float(np.sum(nabla_back_g * dft))
    return abs(lhs - rhs)


def ibp_tolerance(f: GridFunction2D) -> float:
    """Roundoff envelope: 10^3 ulp times the number of grid cells."""
    n_cells = (f.t_grid.size - 1) * f.x_grid.size
    return 1e3 * np.finfo(float).eps * n_cells


def symmetric_difference(values: np.ndarray, m: int, a: float) -> np.ndarray:
    """(f(x+a) - 2 f(x) + f(x-a)) / a on the grid (zero-padded shifts)."""
    return (_shifted(values, m) - 2.0 * values + _shifted(values, -m)) / a


def symmetric_difference_trace(
    f: GridFunction2D, g: GridFunction2D, theta: BoxIndicator, shifts_cells
) -> np.ndarray:
    """The paired symmetric-difference quantity at each ladder width.

    value(a) = dx * [ sum theta * sdiff_a f * d_t g + sum theta * sdiff_a g * d_t f ]
    with theta and the symmetric differences taken at the right time endpoint
    of each t-cell.  Tends to zero as the width shrinks; for a kink paired
    with time variation supported away from it, it is exactly zero once the
    width clears the separation.
    """
    if f.values.shape != g.values.shape:
        raise ValueError("f and g must share grids")
    t0, t1, x_lo, x_hi = theta.box
    max_m = max(abs(int(m)) for m in shifts_cells)
    if x_lo - max_m * f.dx < f.x_grid[0] or x_hi + max_m * f.dx > f.x_grid[-1]:
        raise ValueError("theta support too close to the grid border for the widest shift")
    th = np.asarray(theta(f.t_grid[1:, None], f.x_grid[None, :]), dtype=float)
    dgt = g.dt_cells
    dft = f.dt_cells
    out = []
    for m in shifts_cells:
        m = int(m)
        a = m * f.dx
        sf = symmetric_difference(f.values[1:, :], m, a)
        sg = symmetric_difference(g.values[1:, :], m, a)
        val = f.dx * (float(np.sum(th * sf * dgt)) + float(np.sum(th * sg * dft)))
        out.append(val)
    return np.asarray(out)
