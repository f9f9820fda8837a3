import csv
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from qvlab.call_surface import (
    CallSurface,
    _one_pass,
    _pass_block,
    _surface_sums,
    convexity_defect,
    kink_identity_check,
    monotonicity_check,
    occupation_identity_check,
    run_identity,
)
from qvlab.cli import main
from qvlab.errors import ConfigurationError
from qvlab.functions import make_function
from qvlab.generators import Box, GeneratorSpec, generate, make_coefficient, make_jump_law, make_path, parse_box
from qvlab.paths import PathEnsemble

from conftest import jump_times, left_limit, value_at


def _surface(spec, n_paths, n_t, x_lo, x_hi, n_x):
    """Surface on n_t + 1 times over [0, horizon] and n_x + 1 points over [x_lo, x_hi]."""
    return run_identity(spec, Box(0.0, spec.horizon, x_lo, x_hi), n_paths, n_t=n_t, n_x=n_x).surface


def _identity(spec, theta, **kw):
    return run_identity(spec, parse_box(theta), **kw).identity


def test_deterministic_path_surface_exact():
    spec = GeneratorSpec(kind="euler_sde", n_steps=16, x0=1.0,
                         sigma="const(0.0)", b="const(0.0)", seed=0)
    surf = _surface(spec, 4, 4, -1.0, 2.0, 6)
    want = np.maximum(1.0 - surf.x_grid, 0.0)
    assert np.array_equal(surf.values, np.tile(want, (5, 1)))
    assert np.all(surf.stderr == 0.0)


def test_brownian_call_value_oracle():
    # C(1, 0) for a standard normal: quadrature of the positive part
    oracle, _ = integrate.quad(lambda z: max(z, 0.0) * stats.norm.pdf(z), -10, 10)
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=4242)
    surf = _surface(spec, 10**4, 1, -2.0, 2.0, 40)
    j = int(np.argmin(np.abs(surf.x_grid)))
    got = surf.values[-1, j]
    assert abs(got - oracle) <= 3.0 * surf.stderr[-1, j]
    assert abs(oracle - 1.0 / np.sqrt(2 * np.pi)) < 1e-12


def test_surface_zero_beyond_max_value():
    spec = GeneratorSpec(kind="brownian", n_steps=32, seed=9)
    top = float(generate(spec, 50).values.max())
    surf = _surface(spec, 50, 4, top + 0.5, top + 1.0, 1)
    assert np.all(surf.values == 0.0)


def test_surface_lower_bound_and_monotone_in_x():
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=11)
    surf = _surface(spec, 2000, 8, -2.0, 2.0, 32)
    assert np.all(np.diff(surf.values, axis=1) <= 1e-15)  # nonincreasing in x
    assert np.all(surf.values >= 0.0)
    # C(t,x) >= E X_t - x up to Monte Carlo noise
    mean_x = 0.0
    slack = 3.0 * np.max(surf.stderr) + 1e-12
    assert np.all(surf.values >= (mean_x - surf.x_grid)[None, :] - slack)


def test_surface_convexity_defect_at_ulp_scale():
    # means of hinge samples are convex in exact arithmetic; IEEE rounding
    # can leave ulp-scale violations, so the check carries an ulp allowance
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=21)
    surf = _surface(spec, 5000, 8, -3.0, 3.0, 60)
    defect = convexity_defect(surf)
    assert defect >= -64.0 * np.finfo(float).eps * float(surf.values.max())
    # and real curvature is present in the bulk
    mid = surf.values[-1, 25:35]
    assert np.all(mid[:-2] - 2 * mid[1:-1] + mid[2:] > 1e-4)


def test_monotonicity_brownian():
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=33)
    surf = _surface(spec, 4000, 16, -2.0, 2.0, 16)
    rep = monotonicity_check(surf, spec)
    assert not rep.skipped
    assert rep.violations == 0


def test_monotonicity_pure_drift_exact():
    spec = GeneratorSpec(kind="euler_sde", n_steps=64, sigma="const(0.0)", b="const(1.0)", seed=0)
    surf = _surface(spec, 2, 8, 0.0, 1.0, 8)
    # C(t, x) = (t - x)_+ exactly
    want = np.maximum(surf.t_grid[:, None] - surf.x_grid[None, :], 0.0)
    assert np.allclose(surf.values, want, atol=1e-12)
    rep = monotonicity_check(surf, spec)
    assert rep.violations == 0


def test_monotonicity_compound_poisson_martingale():
    spec = GeneratorSpec(kind="compound_poisson", n_steps=256, jump_rate=3.0,
                         jump_law="normal(0.0, 1.0)", seed=55)
    surf = _surface(spec, 4000, 8, -2.0, 2.0, 16)
    rep = monotonicity_check(surf, spec)
    assert not rep.skipped  # martingale: zero drift allowance
    assert rep.violations == 0


def test_monotonicity_skipped_without_drift_model():
    spec = GeneratorSpec(kind="euler_sde", n_steps=16, b="linear(0, 1)", seed=0)
    surf = _surface(spec, 8, 2, -1.0, 1.0, 4)
    rep = monotonicity_check(surf, spec)
    assert rep.skipped


def test_occupation_identity_brownian_small():
    spec = GeneratorSpec(kind="brownian", n_steps=256, seed=1)
    rep = _identity(spec, "box(0.0, 1.0, -1.0, 1.0)", n_paths=2000,
                                    n_t=256, n_x=64)
    assert rep.passed
    assert rep.rhs_drift_term == 0.0 and rep.rhs_jump_term == 0.0
    assert rep.stderr > 0 and rep.budget > 0


def test_occupation_identity_deterministic_path_all_zero():
    spec = GeneratorSpec(kind="euler_sde", n_steps=64, x0=0.5,
                         sigma="const(0.0)", b="const(0.0)", seed=0)
    rep = _identity(spec, "box(0.0, 1.0, -1.0, 1.0)", n_paths=4,
                                    n_t=64, n_x=32)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_occupation_identity_pure_drift_closed_form():
    spec = GeneratorSpec(kind="euler_sde", n_steps=256, sigma="const(0.0)", b="const(1.0)", seed=0)
    rep = _identity(spec, "box(0.0, 1.0, 0.0, 1.0)", n_paths=4,
                                    n_t=256, n_x=64)
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert rep.rhs_drift_term == pytest.approx(0.5, abs=1.0 / 256)
    assert rep.passed


def test_occupation_identity_jump_term():
    # pure-jump martingale: only the jump term balances the surface change
    spec = GeneratorSpec(kind="compound_poisson", n_steps=512, jump_rate=2.0,
                         jump_law="normal(0.0, 0.5)", seed=6)
    rep = _identity(spec, "box(0.0, 1.0, -1.5, 1.5)", n_paths=4000,
                                    n_t=128, n_x=64)
    assert rep.rhs_qv_term == 0.0
    assert rep.rhs_jump_term > 0.0
    assert rep.passed


@pytest.mark.parametrize("seed", [12345, 777])
@pytest.mark.parametrize("law", ["const(0.5)", "normal(0.5, 0.2)", "uniform(-1.0, 0.2)"])
def test_identity_counts_the_jump_compensator_on_jump_diffusion(tmp_path, law, seed):
    # jumps with a nonzero mean: their compensator rate * E[J] dt is part of
    # dA on jump_diffusion as on compound_poisson.  Without it, const(0.5)
    # at seed 12345 missed by 2.19 against an allowance of 0.24
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"generator": {"kind": "jump_diffusion", "jump_rate": 3.0, "jump_law": law}}))
    out = tmp_path / "out"
    assert main(["identity", "--config", str(cfg), "--paths", "1000", "--seed", str(seed), "--out", str(out)]) == 0
    identity = json.loads((out / "identity.json").read_text())["identity"]
    assert identity["pass"] and identity["rhs_drift_term"] != 0.0


def test_theta_linearity():
    spec = GeneratorSpec(kind="brownian", n_steps=128, seed=14)
    kw = dict(n_paths=500, n_t=64, n_x=64)
    left = _identity(spec, "box(0.0, 1.0, -1.0, 0.0)", **kw)
    right = _identity(spec, "box(0.0, 1.0, 0.0, 1.0)", **kw)
    whole = _identity(spec, "box(0.0, 1.0, -1.0, 1.0)", **kw)
    # the x-grids of the halves refine the whole at equal spacing, so the
    # split sums agree to quadrature tolerance
    assert whole.lhs == pytest.approx(left.lhs + right.lhs, abs=2e-2)
    assert whole.rhs == pytest.approx(left.rhs + right.rhs, abs=2e-2)


def test_identity_refinement_stability():
    spec = GeneratorSpec(kind="brownian", n_steps=512, seed=77)
    coarse = _identity(spec, "box(0.0, 1.0, -1.0, 1.0)",
                                       n_paths=1000, n_t=128, n_x=32)
    fine = _identity(spec, "box(0.0, 1.0, -1.0, 1.0)",
                                     n_paths=1000, n_t=256, n_x=64)
    assert abs(fine.lhs - coarse.lhs) <= coarse.budget + 3 * (coarse.stderr + fine.stderr)


def test_kink_identity_abs_and_square(brownian_200_l12):
    spec = GeneratorSpec(kind="brownian", n_steps=4096, seed=12345)
    theta = Box(0.0, 1.0, -2.0, 2.0)  # its 65-point x-grid contains the kink column x = 0
    rep = run_identity(spec, theta, 2000, n_t=64, n_x=64, function="abs").kink
    assert not rep.skipped and rep.passed
    assert rep.lhs <= rep.lhs_budget + 1e-15

    rep2 = run_identity(spec, theta, 500, n_t=64, n_x=64, function="square").kink
    assert rep2.lhs == 0.0 and rep2.rhs == 0.0 and rep2.passed


def test_kink_identity_skipped_without_metadata():
    from qvlab.functions import PathFunction

    bare = PathFunction(evaluate=lambda t, x: 0.0 * np.asarray(x), dx_exact=lambda t, x: 0.0 * np.asarray(x))
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=2)
    run = run_identity(spec, Box(0.0, 1.0, -1.0, 1.0), 16, n_t=4, n_x=8)
    assert run.kink is None
    rep = kink_identity_check(spec, bare, run.surface, np.zeros(16))
    assert rep.skipped


@pytest.mark.parametrize("fexpr", ["abs", "moving_kink(k_jump=0.5, k_size=0.5)", "scaled_step(t1=0.5, phi=abs)"])
def test_kink_columns_are_the_kink_set_at_any_t(fexpr):
    # the RHS sums |dC| over the x-grid columns on the kink set at some t of
    # the surface grid, found here t by t; the moving kink has two columns
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=3)
    surface = run_identity(spec, Box(0.0, 1.0, -1.0, 1.0), 50, n_t=8, n_x=8).surface
    f = make_function(fexpr)
    cols = np.zeros(surface.x_grid.size, dtype=bool)
    for t in surface.t_grid:
        cols |= np.asarray(f.nondiff_indicator(t, surface.x_grid), dtype=bool)
    assert cols.sum() == (2 if fexpr.startswith("moving_kink") else 1)
    dx = float(surface.x_grid[1] - surface.x_grid[0])
    want = 2.0 * dx * float(np.sum(np.abs(np.diff(surface.values, axis=0))[:, cols]))
    assert kink_identity_check(spec, f, surface, np.zeros(50)).rhs == want


def test_make_theta_validation():
    th = parse_box("box(0, 1, -1, 1)")
    assert th == Box(0.0, 1.0, -1.0, 1.0) and all(type(c) is float for c in th)
    assert float(th(0.5, 0.0)) == 1.0 and float(th(0.5, 2.0)) == 0.0
    assert float(th.integral_to(0.5, 0.25)) == 1.25
    with pytest.raises(ValueError):
        parse_box("blob(0, 1)")
    assert parse_box("box(x_hi=1, x_lo=-1, t0=0, t1=1)") == th
    assert parse_box("box(0.5, 0.5, -1, 1)") == (0.5, 0.5, -1.0, 1.0)


@pytest.mark.parametrize(
    "expr, reason",
    [
        ("box(0.0, 1.0, -1.0, 1.0, 2.0)", "takes 4 positional arguments"),
        ("box(0.0, 1.0, -1.0, 1.0, depth=2.0)", "unexpected keyword argument 'depth'"),
        ("box(0.0, 1.0, -1.0, x_hi=nan)", "finite"),
        ("box(1.0, 0.0, -1.0, 1.0)", "t0 <= t1"),
        ("box(0.0, 1.0, 1.0, -1.0)", "x_lo < x_hi"),
        ("box(0.0, 1.0, 1.0, 1.0)", "x_lo < x_hi"),
        ("box(0.0, 1.0, -1.0, t0=0.0)", "multiple values for argument 't0'"),
        ("box(0.0, 1.0, -1.0)", "missing 1 required positional argument"),
    ],
)
def test_make_theta_refuses_malformed_boxes(expr, reason):
    with pytest.raises(ConfigurationError, match=reason):
        parse_box(expr)


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError):
        PathEnsemble(times=np.linspace(0, 1, 3), values=np.empty((0, 3)), marks=np.empty((0, 3), bool))
    spec = GeneratorSpec(kind="brownian", n_steps=8, seed=0)
    with pytest.raises(ValueError):
        run_identity(spec, Box(0.0, 1.0, -1.0, 1.0), 0, n_t=2, n_x=2)


@pytest.mark.parametrize("n_paths", [0, -3, 1])
def test_identity_rejects_bad_path_count(n_paths, tmp_path):
    # one path has no standard error: its identity would pass by construction
    spec = GeneratorSpec(kind="brownian", n_steps=8, seed=0)
    with pytest.raises(ValueError, match="n_paths must be >= 2"):
        run_identity(spec, Box(0.0, 1.0, -1.0, 1.0), n_paths, n_t=2, n_x=2, function="abs")
    assert main(["identity", "--paths", str(n_paths), "--out", str(tmp_path / "o")]) == 2


def test_box_between_t_grid_points_has_zero_lhs():
    # no t_{i+1} of the 4-cell grid lies in [0.3, 0.45]: every path's LHS
    # would be the empty sum, so the identity refuses the box before any
    # pass
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=5)
    theta = Box(0.3, 0.45, -1.0, 1.0)
    with pytest.raises(ValueError, match=r"theta's \[t0, t1\] = \[0.3, 0.45\] holds no right end of the 4 t-cells"):
        run_identity(spec, theta, 20, n_t=4, n_x=8)


@pytest.mark.parametrize("theta", ["box(2.0, 3.0, -1.0, 1.0)", "box(0.3, 0.3, -1.0, 1.0)"])
def test_a_box_with_no_t_cell_exits_2_naming_theta(theta, tmp_path, capsys):
    # past the horizon, or one time between the default grid's 256 cell ends:
    # both sides of the identity would be empty sums, and pass
    cfg = tmp_path / "box.json"
    cfg.write_text(json.dumps({"theta": theta, "n_paths": 2}))
    out = tmp_path / "o"
    assert main(["identity", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: theta's [t0, t1]")
    assert not out.exists()


def test_identity_checks_reject_one_row():
    # one row: LHS 5.0 against RHS 1.0 would pass on an infinite stderr, and
    # the kink LHS on a zero budget spread
    theta = Box(0.0, 1.0, -1.0, 1.0)
    t_grid, x_grid = np.linspace(0.0, 1.0, 3), np.linspace(-1.0, 1.0, 3)
    with pytest.raises(ValueError, match="occupation identity needs >= 2 paths"):
        occupation_identity_check(theta, np.array([[5.0, 1.0, 0.0, 0.0, 1.0, 0.0]]), t_grid, x_grid)
    spec = GeneratorSpec(kind="brownian", n_steps=8, seed=0)
    surface = run_identity(spec, theta, 2, n_t=2, n_x=2).surface
    with pytest.raises(ValueError, match="kink identity needs >= 2 paths"):
        kink_identity_check(spec, make_function("abs"), surface, np.array([0.5]))


# ---------------------------------------------------------------------------
# bitwise oracle: the three per-path loops the one pass replaced, each path
# built on its own with make_path


def _oracle_model_cells(genspec, path, t_grid):
    qv_rate = genspec.qv_rate()
    dt = np.diff(t_grid)
    xt = value_at(path, t_grid)
    qv_cells = np.asarray(qv_rate(t_grid[:-1], xt[:-1]), dtype=float) * dt
    # dA: b for the Euler kinds, plus the compensator rate * E[J] for the
    # jump kinds
    if genspec.kind == "brownian":
        drift_cells = np.zeros_like(dt)
    elif genspec.kind == "compound_poisson":
        drift_cells = make_jump_law(genspec.jump_law).mean * genspec.jump_rate * dt
    else:
        rate = np.asarray(make_coefficient(genspec.b)(t_grid[:-1], xt[:-1]), dtype=float)
        if genspec.kind == "jump_diffusion":
            rate = rate + make_jump_law(genspec.jump_law).mean * genspec.jump_rate
        drift_cells = rate * dt
    return xt, qv_cells, drift_cells


def _box_run(theta, t_grid, x_centers):
    """(a, b, J): the cells i in [a, b) whose right end is in theta's
    t-range, and the midpoints in its x-range; (0, 0) when no end is."""
    t0, t1, lo, hi = theta
    cells = [i for i, t in enumerate(t_grid[1:]) if t0 <= t <= t1]
    a, b = (cells[0], cells[-1] + 1) if cells else (0, 0)
    return a, b, np.array([c for c in x_centers if lo <= c <= hi])


def _identity_terms(paths, genspec, theta, t_grid, x_centers, dx):
    a, b, centers = _box_run(theta, t_grid, x_centers)
    out = []
    for path in paths:
        xt, qv_cells, drift_cells = _oracle_model_cells(genspec, path, t_grid)
        # the box's double sum of hinge increments, telescoped over [a, b)
        lhs = float(np.sum(np.maximum(xt[b] - centers, 0.0) - np.maximum(xt[a] - centers, 0.0)) * dx)
        th_left = theta(t_grid[:-1], xt[:-1])
        qv_term = 0.5 * float(np.sum(th_left * qv_cells))
        drift_term = float(np.sum(theta.integral_to(t_grid[:-1], xt[:-1]) * drift_cells))
        jump_term = 0.0
        jt = jump_times(path, np.inf)
        for s in jt[jt <= t_grid[-1]]:
            before = left_limit(path, s)
            after = value_at(path, s)
            jump_term += theta.hinge_integral(float(s), float(before), float(after), float(after))
        out.append((lhs, qv_term, drift_term, jump_term,
                    float(np.sum(qv_cells)), float(np.sum(np.abs(drift_cells)))))
    return out


def _kink_lhs(paths, genspec, fexpr, t_grid):
    f = make_function(fexpr)
    out = []
    for path in paths:
        xt, qv_cells, _ = _oracle_model_cells(genspec, path, t_grid)
        on_kink = np.asarray(f.nondiff_indicator(t_grid[:-1], xt[:-1]), dtype=bool)
        out.append(float(np.sum(qv_cells[on_kink])))
    return out


def _oracle_pass(genspec, theta, t_grid, x_grid, n, fexpr):
    """(xt, terms, kink): each path's X_t row, identity terms and kink LHS."""
    paths = [make_path(genspec, i) for i in range(n)]
    xt = np.asarray([value_at(path, t_grid) for path in paths])
    x_centers = 0.5 * (x_grid[:-1] + x_grid[1:])
    dx = float(x_grid[1] - x_grid[0])
    terms = np.asarray(_identity_terms(paths, genspec, theta, t_grid, x_centers, dx))
    kink = np.asarray(_kink_lhs(paths, genspec, fexpr, t_grid))
    return xt, terms, kink


U = Fraction(1, 2**53)  # unit roundoff


def _assert_exact_within_bound(s, ss, xt, x_grid):
    """s and ss against the exact rational sums of the hinges (X_t - x)_+
    over the rows of xt and of their squares, within the bounds that
    _surface_sums derives from its roundings: with u the unit roundoff,
    4u (|A_k| + k |x|) for s and 6u (B_k + 2 |x A_k| + k x^2) for ss, where
    A_k and B_k are the exact sums of the k values above x and of their
    squares.  Neither sum is ever negative."""
    assert s.shape == ss.shape == (xt.shape[1], x_grid.size)
    assert np.all(s >= 0.0) and np.all(ss >= 0.0)
    for i, col in enumerate(xt.T):
        ys = sorted((Fraction(float(v)) for v in col), reverse=True)
        a, b = [Fraction(0)], [Fraction(0)]  # exact sums of the k largest, and of their squares
        for y in ys:
            a.append(a[-1] + y)
            b.append(b[-1] + y * y)
        for j, x in enumerate(x_grid.tolist()):
            x = Fraction(x)
            k = sum(y > x for y in ys)
            exact_s = a[k] - k * x
            exact_ss = b[k] - 2 * x * a[k] + k * x * x
            assert abs(Fraction(float(s[i, j])) - exact_s) <= 4 * U * (abs(a[k]) + k * abs(x))
            assert abs(Fraction(float(ss[i, j])) - exact_ss) <= 6 * U * (b[k] + 2 * abs(x * a[k]) + k * x * x)


_ORACLE_SPECS = {
    "brownian": GeneratorSpec(kind="brownian", n_steps=64, seed=31),
    "euler_drift": GeneratorSpec(kind="euler_sde", n_steps=64, b="const(0.5)",
                                 sigma="abs_shift(0.5, 0.5)", seed=32),
    "jump_diffusion": GeneratorSpec(kind="jump_diffusion", n_steps=64, jump_rate=4.0,
                                    b="const(-0.25)", seed=33),
    "jump_diffusion_mean": GeneratorSpec(kind="jump_diffusion", n_steps=64, jump_rate=4.0,
                                         jump_law="uniform(-1.0, 0.2)", b="linear(0.1, -0.5)", seed=36),
    "compound_poisson": GeneratorSpec(kind="compound_poisson", n_steps=64, jump_rate=4.0,
                                      jump_law="normal(0.5, 1.0)", seed=34),
    # arange(71) * (0.7 / 70) ended at 0.7000000000000001, past the
    # horizon; the grid now ends at 0.7, so a jump at the last grid time
    # enters the jump term
    "grid_past_horizon": GeneratorSpec(kind="compound_poisson", n_steps=70, horizon=0.7,
                                       jump_rate=4.0, jump_law="normal(0.0, 0.5)", seed=35),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_paths,kind", [(130, k) for k in _ORACLE_SPECS] + [(600, "brownian")])
def test_one_pass_matches_per_path_loops_bitwise(kind, n_paths, workers):
    # 130 paths split into blocks of 64, 64 and 2 paths, 600 paths into
    # nine 64-path blocks and a 24-path one, each block one task.  The
    # identity terms and kink LHS match the per-path loops bit for bit; the
    # surface sums are checked against exact rational sums
    spec = _ORACLE_SPECS[kind]
    theta = Box(0.25, 0.75, -0.5, 1.0)
    t_grid = np.linspace(0.0, spec.horizon, 33)
    x_grid = np.linspace(-0.5, 1.0, 17)
    s, ss, terms, kink = _one_pass(spec, theta, t_grid, x_grid, n_paths, "abs", workers=workers)
    xt, want_terms, want_kink = _oracle_pass(spec, theta, t_grid, x_grid, n_paths, "abs")
    assert terms.shape == (n_paths, 6) and kink.shape == (n_paths,)
    for g, w in ((terms, want_terms), (kink, want_kink)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    _assert_exact_within_bound(s, ss, xt, x_grid)
    if kind != "brownian":
        assert np.any(terms[:, 2] != 0.0) or np.any(terms[:, 3] != 0.0)
    if kind == "grid_past_horizon":
        assert spec.grid()[-1] == spec.horizon == t_grid[-1]
        ens, times = generate(spec, n_paths), spec.grid()
        last = []
        for r in np.flatnonzero(ens.marks[:, -1]):
            # the row's jump term, every marked jump in time order
            term = 0.0
            for k in np.flatnonzero(ens.marks[r]):
                before, after = float(ens.values[r, max(k - 1, 0)]), float(ens.values[r, k])
                last.append(theta.hinge_integral(float(times[k]), before, after, after))
                term += last[-1]
            assert terms[r, 3] == term
        assert any(v != 0.0 for v in last)


def test_the_pass_reads_x_at_the_horizon_from_the_last_grid_column():
    # at horizon 0.7 and 70 steps the grid ended past 0.7, and X_T came from
    # column 69
    spec = GeneratorSpec(kind="brownian", n_steps=70, horizon=0.7, seed=35)
    t_grid, x_grid = np.linspace(0.0, spec.horizon, 33), np.linspace(-1.0, 1.0, 9)
    xt = _pass_block(0, 20, spec, Box(0.0, 0.7, -1.0, 1.0), t_grid, x_grid, None)[0]
    assert np.array_equal(xt[:, -1], generate(spec, 20).values[:, -1])


def test_telescoped_lhs_within_4_ulps_of_the_exact_double_sum():
    # the exact sum over i and j of theta(t_{i+1}, x_j) dx (hinge(t_{i+1}) -
    # hinge(t_i)), in rationals over the same float hinges, against the pass's
    # telescoped LHS, on a box with interior t- and x-edges
    spec = _ORACLE_SPECS["jump_diffusion"]
    theta = Box(0.25, 0.75, -0.5, 1.0)
    t_grid = np.linspace(0.0, spec.horizon, 33)
    x_grid = np.linspace(-1.0, 1.5, 21)
    x_centers = 0.5 * (x_grid[:-1] + x_grid[1:])
    dx = float(x_grid[1] - x_grid[0])
    inside = theta(t_grid[1:, None], x_centers[None, :]) == 1.0
    assert not inside.all() and inside.any()
    lhs = _one_pass(spec, theta, t_grid, x_grid, 8)[2][:, 0]
    for i, got in enumerate(lhs):
        hinges = np.maximum(value_at(make_path(spec, i), t_grid)[:, None] - x_centers, 0.0)
        exact = Fraction(dx) * sum(
            Fraction(float(hinges[k + 1, j])) - Fraction(float(hinges[k, j])) for k, j in zip(*np.nonzero(inside))
        )
        assert abs(Fraction(float(got)) - exact) <= 4 * Fraction(float(np.spacing(abs(float(exact)))))


def test_run_identity_reports_are_functions_of_the_pass():
    spec = _ORACLE_SPECS["jump_diffusion"]
    theta = Box(0.0, 1.0, -1.0, 1.0)
    run = run_identity(spec, theta, 130, n_t=32, n_x=16, function="abs", workers=2)
    t_grid = np.linspace(0.0, spec.horizon, 33)
    x_grid = np.linspace(-1.0, 1.0, 17)
    xt, terms, kink = _oracle_pass(spec, theta, t_grid, x_grid, 130, "abs")
    surface = CallSurface.from_sums(t_grid, x_grid, *_surface_sums([xt], x_grid), 130)
    assert run.surface.to_csv() == surface.to_csv()
    assert run.identity == occupation_identity_check(theta, terms, t_grid, x_grid)
    assert run.kink == kink_identity_check(spec, make_function("abs"), surface, kink)
    assert run.identity.rhs_drift_term != 0.0 and run.identity.rhs_jump_term != 0.0


def _xt_blocks(seed, n_paths=90, n_t1=7):
    rng = np.random.default_rng(seed)
    xt = rng.standard_normal((n_paths, n_t1))
    return xt, [xt[:64], xt[64:]]


def test_surface_sums_are_zero_where_no_path_exceeds_x():
    # every t-row's largest value is itself a grid point, with grid points
    # above all values; there k = 0 and both sums are exactly +0.0
    xt, blocks = _xt_blocks(1)
    tops = xt.max(axis=0)
    x_grid = np.unique(np.concatenate([np.linspace(-3.0, 3.0, 13), tops, [tops.max() + 1.0]]))
    s, ss = _surface_sums(blocks, x_grid)
    none_above = x_grid[None, :] >= tops[:, None]
    assert none_above.sum() >= xt.shape[1] + 1
    for sums in (s, ss):
        assert np.all(sums[none_above] == 0.0) and not np.signbit(sums[none_above]).any()
        assert np.all(sums[~none_above] > 0.0)
    _assert_exact_within_bound(s, ss, xt, x_grid)


def test_surface_sums_are_never_negative_at_near_ties():
    # grid points at, and one ulp either side of, every value, where the
    # hinge sums cancel most: k x_j lies within an ulp of the top-k sum
    xt, blocks = _xt_blocks(2, n_paths=40, n_t1=3)
    vals = np.unique(xt)
    x_grid = np.unique(np.concatenate([vals, np.nextafter(vals, -np.inf), np.nextafter(vals, np.inf)]))
    s, ss = _surface_sums(blocks, x_grid)
    _assert_exact_within_bound(s, ss, xt, x_grid)


def test_surface_sums_depend_only_on_the_values_at_each_t():
    xt, blocks = _xt_blocks(3)
    x_grid = np.linspace(-2.0, 2.0, 17)
    want = _surface_sums(blocks, x_grid)
    shuffled = xt[np.random.default_rng(4).permutation(len(xt))]
    for other in ([xt], [shuffled], [shuffled[:1], shuffled[1:30], shuffled[30:]], list(xt[:, None, :])):
        got = _surface_sums(other, x_grid)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _csv_writer_oracle(surface):
    """CallSurface.to_csv as it was written with csv.writer."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t", "x", "C", "stderr"])
    for i, t in enumerate(surface.t_grid):
        for j, xx in enumerate(surface.x_grid):
            w.writerow([repr(float(t)), repr(float(xx)),
                        repr(float(surface.values[i, j])), repr(float(surface.stderr[i, j]))])
    return buf.getvalue()


def test_surface_csv_matches_csv_writer_oracle():
    t_grid = np.linspace(0.0, 1.0, 4)
    x_grid = np.linspace(-1e-05, 3e-05, 5)
    values = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e-05,
                       3.3e-05, 0.1 + 0.2, 1.0 / 3.0, 1e16, 1.7976931348623157e308,
                       123456789.123, 1e300 * 10, 2.5e-05, 7.0, 1e-300, 6.02e23,
                       4.9e-05, 1e22, 1e-07, 0.5])
    values = values.reshape(t_grid.size, x_grid.size)
    stderr = np.abs(values[::-1]) * 1e-3
    surface = CallSurface(t_grid=t_grid, x_grid=x_grid, values=values, stderr=stderr)
    text = surface.to_csv()
    assert text == _csv_writer_oracle(surface)
    assert text.count("\n") == 1 + t_grid.size * x_grid.size
