import numpy as np
import pytest

from qvlab.functions import make_function
from qvlab.generators import Box
from qvlab.grid_calculus import (
    GridFunction2D,
    ibp_residual,
    ibp_tolerance,
    symmetric_difference,
    symmetric_difference_trace,
)


def _grid(n_t, n_x, t_hi=1.0, x_lo=-2.0, x_hi=2.0):
    return np.linspace(0.0, t_hi, n_t), np.linspace(x_lo, x_hi, n_x)


def _compact_f(n_t, n_x, seed=0):
    """Random f vanishing on the t-edges and a wide x-band."""
    rng = np.random.default_rng(seed)
    t, x = _grid(n_t, n_x)
    vals = np.zeros((n_t, n_x))
    vals[1:-1, 4:-4] = rng.standard_normal((n_t - 2, n_x - 8))
    return GridFunction2D(t_grid=t, x_grid=x, values=vals)


def _brute_force_ibp_sides(f, g, m):
    """Literal quadruple-loop evaluation of both sides (independent oracle)."""
    n_t, n_x = f.values.shape
    a = m * f.dx
    lhs = 0.0
    rhs = 0.0
    for i in range(n_t - 1):
        for j in range(n_x):
            jp = j + m
            fv = f.values[i + 1, jp] if 0 <= jp < n_x else 0.0
            nf = (fv - f.values[i + 1, j]) / a
            lhs += nf * (g.values[i + 1, j] - g.values[i, j]) * f.dx
            jm = j - m
            gv = g.values[i, jm] if 0 <= jm < n_x else 0.0
            ng = (g.values[i, j] - gv) / a
            rhs += ng * (f.values[i + 1, j] - f.values[i, j]) * f.dx
    return lhs, rhs


def test_ibp_zero_function():
    t, x = _grid(5, 17)
    f = GridFunction2D(t_grid=t, x_grid=x, values=np.zeros((5, 17)))
    g = GridFunction2D(t_grid=t, x_grid=x, values=np.ones((5, 17)))
    assert ibp_residual(f, g, f.dx) == 0.0


def test_ibp_matches_brute_force_small_grid():
    # 4x4-scale oracle: expand the double sums literally and compare
    f = _compact_f(4, 12, seed=1)
    rng = np.random.default_rng(2)
    t, x = _grid(4, 12)
    g = GridFunction2D(t_grid=t, x_grid=x, values=rng.standard_normal((4, 12)))
    for m in (1, 2, -1):
        lhs, rhs = _brute_force_ibp_sides(f, g, m)
        assert abs(lhs - rhs) < 1e-12  # the discrete identity itself
        assert ibp_residual(f, g, m * f.dx) == pytest.approx(abs(lhs - rhs), abs=1e-12)


def test_ibp_residual_roundoff_smooth():
    f = _compact_f(33, 257, seed=3)
    t, x = _grid(33, 257)
    g_fn = make_function("ramp_bump(c=0.5, w=1.0, rate=2.0)")
    g = GridFunction2D.sample(g_fn, t, x)
    for m in (1, 2, 3):
        assert ibp_residual(f, g, m * f.dx) <= ibp_tolerance(f)


def test_ibp_residual_roundoff_with_time_jump():
    # g jumping in t exercises the left-limit pairing
    f = _compact_f(33, 257, seed=4)
    t, x = _grid(33, 257)
    g = GridFunction2D.sample(make_function("scaled_step(t1=0.37, phi=bump, c=0.3, w=0.8)"), t, x)
    assert ibp_residual(f, g, f.dx) <= ibp_tolerance(f)


def test_ibp_rejects_bad_inputs():
    t, x = _grid(5, 17)
    f = GridFunction2D(t_grid=t, x_grid=x, values=np.ones((5, 17)))  # no support band
    g = GridFunction2D(t_grid=t, x_grid=x, values=np.ones((5, 17)))
    with pytest.raises(ValueError, match="band|vanish"):
        ibp_residual(f, g, f.dx)
    fc = _compact_f(5, 17)
    with pytest.raises(ValueError, match="multiple"):
        ibp_residual(fc, g, 0.4 * fc.dx)
    with pytest.raises(ValueError, match="multiple"):
        ibp_residual(fc, g, 0.0)


def test_symmetric_difference_kink_profile():
    t, x = _grid(3, 41, x_lo=-1.0, x_hi=1.0)
    vals = np.abs(np.tile(x, (3, 1)))
    m = 4
    a = m * (x[1] - x[0])
    sd = symmetric_difference(vals, m, a)
    j0 = 20  # x = 0
    assert sd[0, j0] == pytest.approx(2.0)
    assert sd[0, j0 + m] == pytest.approx(0.0, abs=1e-12)


def test_trace_smooth_pair_decays_linearly():
    n_x = 8193
    t = np.linspace(0.0, 1.0, 5)
    x = np.linspace(-4.0, 4.0, n_x)
    f = GridFunction2D(t_grid=t, x_grid=x, values=np.tile(np.exp(-0.5 * x**2), (5, 1)))
    g_vals = np.where(t[:, None] >= 0.5, 1.0, 0.0) * np.exp(-0.5 * (x - 0.5) ** 2)[None, :]
    g = GridFunction2D(t_grid=t, x_grid=x, values=g_vals)
    theta = Box(0.0, 1.0, -2.5, 2.5)
    shifts = [256, 128, 64, 32, 16, 8, 4, 2]
    tr = symmetric_difference_trace(f, g, theta, shifts)
    assert np.all(np.abs(tr[1:]) <= np.abs(tr[:-1]))
    # linear-in-width decay: halving the shift halves the value
    ratios = np.abs(tr[1:] / tr[:-1])
    assert np.all(np.abs(ratios - 0.5) < 0.05)


def test_trace_kink_pair_exactly_zero_once_separated():
    n_x = 4097
    t = np.linspace(0.0, 1.0, 5)
    x = np.linspace(-4.0, 4.0, n_x)
    f = GridFunction2D(t_grid=t, x_grid=x, values=np.tile(np.abs(x), (5, 1)))
    off = make_function("bump(c=0.4, w=0.25)")
    g_vals = np.where(t[:, None] >= 0.5, 1.0, 0.0) * np.asarray(off(0.0, x))[None, :]
    g = GridFunction2D(t_grid=t, x_grid=x, values=g_vals)
    theta = Box(0.0, 1.0, -2.0, 2.0)
    shifts = [512, 256, 128, 64, 32]  # widths 1.0 down to 0.0625
    tr = symmetric_difference_trace(f, g, theta, shifts)
    assert tr[0] > 0.0  # wide difference reaches across the gap
    # the off-kink bump is supported on (0.15, 0.65): widths below 0.15
    # (shifts 64 and 32 here) no longer see the kink, exactly
    assert np.all(tr[3:] == 0.0)
    assert np.all(np.abs(tr[1:]) <= np.abs(tr[:-1]))


def test_trace_zero_theta():
    t, x = _grid(5, 129)
    f = GridFunction2D(t_grid=t, x_grid=x, values=np.tile(np.abs(x), (5, 1)))
    g = GridFunction2D(t_grid=t, x_grid=x, values=np.tile(x**2, (5, 1)))
    theta = Box(0.0, 1.0, 0.0, 0.0)  # degenerate box
    tr = symmetric_difference_trace(f, g, theta, [4, 2])
    assert np.all(tr == 0.0)


def test_trace_support_guard():
    t, x = _grid(3, 65)
    f = GridFunction2D(t_grid=t, x_grid=x, values=np.zeros((3, 65)))
    theta = Box(0.0, 1.0, -2.0, 2.0)  # touches the border
    with pytest.raises(ValueError, match="border"):
        symmetric_difference_trace(f, f, theta, [8])


def test_grid_function_validation():
    t, x = _grid(4, 8)
    with pytest.raises(ValueError):
        GridFunction2D(t_grid=t, x_grid=x, values=np.zeros((3, 8)))
    with pytest.raises(ValueError, match="uniform"):
        GridFunction2D(t_grid=np.asarray([0.0, 0.1, 0.5]), x_grid=x, values=np.zeros((3, 8)))
