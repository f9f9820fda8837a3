"""Deterministic grid calculus: discrete integration by parts and the
shrinking symmetric-difference trace.

On a uniform grid with shifts aligned to whole cells, the integration by
parts identity is an exact consequence of Abel summation, so its residual is
a roundoff-level regression quantity rather than an approximation error.
The trace diagnostic evaluates the symmetric-difference pairing at a ladder
of shrinking widths; it vanishes in the limit and exactly once kinked and
time-varying features stop overlapping.  run_appendix_checks runs both on
a fixed corpus for the appendix command.
"""

from __future__ import annotations

import numpy as np

from .functions import PathFunction, make_function
from .generators import Box


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
    f: GridFunction2D, g: GridFunction2D, theta: Box, shifts_cells
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
    t0, t1, x_lo, x_hi = theta
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


def run_appendix_checks() -> tuple:
    """Deterministic grid-calculus corpus: the integration by parts residuals
    of one compactly supported f against three builtin g, and the shrinking
    symmetric-difference traces.  Returns (report, trace rows, ok), where ok
    holds when every residual is within the roundoff tolerance and both
    traces decay as they must."""
    # integration by parts: f compact in (0, T) x interior band; g kinds:
    # smooth-in-t, time-jump, and a moving-kink sample
    n_t, n_x = 33, 257
    t_grid = np.linspace(0.0, 1.0, n_t)
    x_grid = np.linspace(-4.0, 4.0, n_x)
    f_fn = make_function("ramp_bump(c=0.0, w=1.0, rate=1.0)")
    f_vals = np.asarray(f_fn(t_grid[:, None], x_grid[None, :]), dtype=float)
    # window in t so the first/last rows vanish exactly
    tw = np.zeros(n_t)
    tw[1:-1] = np.sin(np.pi * t_grid[1:-1]) ** 2
    f = GridFunction2D(t_grid=t_grid, x_grid=x_grid, values=f_vals * tw[:, None])

    g_registry = {
        "smooth_ramp": make_function("ramp_bump(c=0.5, w=1.5, rate=2.0)"),
        "time_jump": make_function("scaled_step(t1=0.4, phi=bump, c=-0.5, w=1.0)"),
        "moving_kink": make_function("moving_kink(k_jump=0.5)"),
    }
    dx = float(x_grid[1] - x_grid[0])
    residuals = {}
    worst = 0.0
    for name, g_fn in g_registry.items():
        g = GridFunction2D.sample(g_fn, t_grid, x_grid)
        for m in (1, 2, -1):
            r = ibp_residual(f, g, m * dx)
            residuals[f"{name}_m{m}"] = r
            worst = max(worst, r)
    tol = ibp_tolerance(f)
    ibp_ok = worst <= tol

    # shrinking-width traces on a fine 1-d-in-t-jump corpus
    trace_rows, traces_ok = _trace_corpus()

    report = {
        "experiment": "appendix",
        "ibp_residuals": residuals,
        "ibp_tolerance": tol,
        "ibp_pass": bool(ibp_ok),
        "trace_pass": bool(traces_ok),
    }
    return report, trace_rows, bool(ibp_ok and traces_ok)


def _trace_corpus() -> tuple:
    """Two trace ladders: a smooth pair (linear decay over a 2^11 span) and a
    kink against off-kink time variation (exactly zero once separated)."""
    rows = []
    ok = True

    n_x = 32769
    x_grid = np.linspace(-4.0, 4.0, n_x)
    t_grid = np.linspace(0.0, 1.0, 5)
    theta = Box(0.0, 1.0, -2.5, 2.5)
    shifts = [2 ** k for k in range(11, -1, -1)]

    gauss = np.exp(-0.5 * x_grid**2)
    f_smooth = GridFunction2D(
        t_grid=t_grid, x_grid=x_grid, values=np.tile(gauss, (t_grid.size, 1))
    )
    step_profile = np.exp(-0.5 * (x_grid - 0.5) ** 2)
    g_vals = np.where(t_grid[:, None] >= 0.5, 1.0, 0.0) * step_profile[None, :]
    g_smooth = GridFunction2D(t_grid=t_grid, x_grid=x_grid, values=g_vals)
    tr = symmetric_difference_trace(f_smooth, g_smooth, theta, shifts)
    for m, v in zip(shifts, tr):
        rows.append(("smooth", m * f_smooth.dx, float(v)))
    mono = np.all(np.abs(tr[1:]) <= np.abs(tr[:-1]) + 1e-18)
    ratio_ok = abs(tr[-1]) <= 1e-3 * abs(tr[0])
    ok = ok and bool(mono and ratio_ok)

    f_kink = GridFunction2D(
        t_grid=t_grid, x_grid=x_grid, values=np.tile(np.abs(x_grid), (t_grid.size, 1))
    )
    off = make_function("bump(c=0.4, w=0.25)")
    off_profile = np.asarray(off(0.0, x_grid), dtype=float)
    gk_vals = np.where(t_grid[:, None] >= 0.5, 1.0, 0.0) * off_profile[None, :]
    g_kink = GridFunction2D(t_grid=t_grid, x_grid=x_grid, values=gk_vals)
    trk = symmetric_difference_trace(f_kink, g_kink, theta, shifts)
    for m, v in zip(shifts, trk):
        rows.append(("kink", m * f_kink.dx, float(v)))
    mono_k = np.all(np.abs(trk[1:]) <= np.abs(trk[:-1]) + 1e-18)
    zero_tail = trk[-1] == 0.0 and trk[0] != 0.0
    ok = ok and bool(mono_k and zero_tail)

    return rows, ok
