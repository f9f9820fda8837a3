import csv
import io

import numpy as np
import pytest
from scipy import integrate, stats

from qvlab._parallel import map_chunked
from qvlab.call_surface import (
    BoxIndicator,
    CallSurface,
    _gated,
    _one_pass,
    _surface_chunk,
    convexity_defect,
    kink_identity_check,
    make_theta,
    monotonicity_check,
    occupation_identity_check,
    run_identity,
)
from qvlab.cli import main
from qvlab.functions import make_function
from qvlab.generators import GeneratorSpec, generate, make_coefficient, make_jump_law, make_path
from qvlab.paths import PathEnsemble


def _surface(spec, n_paths, n_t, x_lo, x_hi, n_x):
    """Surface on n_t + 1 times over [0, horizon] and n_x + 1 points over [x_lo, x_hi]."""
    theta = f"box(0.0, {spec.horizon!r}, {x_lo!r}, {x_hi!r})"
    return run_identity(spec, theta, n_paths, n_t=n_t, n_x=n_x).surface


def _identity(spec, theta, **kw):
    return run_identity(spec, theta, **kw).identity


class NoisyBox(BoxIndicator):
    """A box that reports junk outside its declared support."""

    def _eval(self, t, x):
        t0, t1, lo, hi = self.box
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        inside = (t >= t0) & (t <= t1) & (x >= lo) & (x <= hi)
        return np.where(inside, 1.0, 7.5)


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


def test_theta_outside_support_irrelevant():
    # a test function that adds junk outside its declared box must produce
    # the identical report: the machinery only ever queries inside the box
    spec = GeneratorSpec(kind="brownian", n_steps=128, seed=14)
    clean = _identity(spec, BoxIndicator(0.0, 1.0, -1.0, 1.0),
                                      n_paths=300, n_t=64, n_x=32)
    noisy = _identity(spec, NoisyBox(0.0, 1.0, -1.0, 1.0),
                                      n_paths=300, n_t=64, n_x=32)
    assert clean.lhs == noisy.lhs
    assert clean.rhs_qv_term == noisy.rhs_qv_term


def test_identity_refinement_stability():
    spec = GeneratorSpec(kind="brownian", n_steps=512, seed=77)
    coarse = _identity(spec, "box(0.0, 1.0, -1.0, 1.0)",
                                       n_paths=1000, n_t=128, n_x=32)
    fine = _identity(spec, "box(0.0, 1.0, -1.0, 1.0)",
                                     n_paths=1000, n_t=256, n_x=64)
    assert abs(fine.lhs - coarse.lhs) <= coarse.budget + 3 * (coarse.stderr + fine.stderr)


def test_kink_identity_abs_and_square(brownian_200_l12):
    spec = GeneratorSpec(kind="brownian", n_steps=4096, seed=12345)
    theta = "box(0.0, 1.0, -2.0, 2.0)"  # its 65-point x-grid contains the kink column x = 0
    rep = run_identity(spec, theta, 2000, n_t=64, n_x=64, f=make_function("abs")).kink
    assert not rep.skipped and rep.passed
    assert rep.lhs <= rep.lhs_budget + 1e-15

    rep2 = run_identity(spec, theta, 500, n_t=64, n_x=64, f=make_function("square")).kink
    assert rep2.lhs == 0.0 and rep2.rhs == 0.0 and rep2.passed


def test_kink_identity_skipped_without_metadata():
    from qvlab.functions import PathFunction

    bare = PathFunction(name="bare", evaluate=lambda t, x: 0.0 * np.asarray(x))
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=2)
    rep = run_identity(spec, "box(0.0, 1.0, -1.0, 1.0)", 16, n_t=4, n_x=8, f=bare).kink
    assert rep.skipped
    assert run_identity(spec, "box(0.0, 1.0, -1.0, 1.0)", 16, n_t=4, n_x=8).kink is None


def test_make_theta_validation():
    th = make_theta("box(0, 1, -1, 1)")
    assert th.box == (0.0, 1.0, -1.0, 1.0)
    assert float(th(0.5, 0.0)) == 1.0 and float(th(0.5, 2.0)) == 0.0
    assert float(th.integral_to(0.5, 0.25)) == 1.25
    with pytest.raises(ValueError):
        make_theta("blob(0, 1)")


def test_empty_ensemble_rejected():
    with pytest.raises(ValueError):
        PathEnsemble(times=np.linspace(0, 1, 3), values=np.empty((0, 3)), marks=np.empty((0, 3), bool))
    spec = GeneratorSpec(kind="brownian", n_steps=8, seed=0)
    with pytest.raises(ValueError):
        run_identity(spec, "box(0.0, 1.0, -1.0, 1.0)", 0, n_t=2, n_x=2)


@pytest.mark.parametrize("n_paths", [0, -3, 1])
def test_identity_rejects_bad_path_count(n_paths, tmp_path):
    # one path has no standard error: its identity would pass by construction
    spec = GeneratorSpec(kind="brownian", n_steps=8, seed=0)
    with pytest.raises(ValueError, match="n_paths must be >= 2"):
        run_identity(spec, "box(0.0, 1.0, -1.0, 1.0)", n_paths, n_t=2, n_x=2, f=make_function("abs"))
    assert main(["identity", "--paths", str(n_paths), "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# bitwise oracle: the three per-path loops the one pass replaced, each path
# built on its own with make_path


def _oracle_paths(genspec, lo, hi):
    return (make_path(genspec, i) for i in range(lo, hi))


def _oracle_model_cells(genspec, path, t_grid):
    qv_rate = genspec.qv_rate()
    dt = np.diff(t_grid)
    xt = path.eval_many(t_grid)
    qv_cells = np.asarray(qv_rate(t_grid[:-1], xt[:-1]), dtype=float) * dt
    if genspec.kind == "brownian":
        drift_cells = np.zeros_like(dt)
    elif genspec.kind in ("euler_sde", "jump_diffusion"):
        b = make_coefficient(genspec.b)
        drift_cells = np.asarray(b(t_grid[:-1], xt[:-1]), dtype=float) * dt
    else:
        drift_cells = make_jump_law(genspec.jump_law).mean * genspec.jump_rate * dt
    return xt, qv_cells, drift_cells


def _hinge_sums(lo, hi, genspec, t_grid, x_grid):
    s = np.zeros((t_grid.size, x_grid.size))
    ss = np.zeros_like(s)
    for path in _oracle_paths(genspec, lo, hi):
        xt = path.eval_many(t_grid)
        h = np.maximum(xt[:, None] - x_grid[None, :], 0.0)
        s += h
        ss += h * h
    return [(s, ss)]


def _identity_terms(lo, hi, genspec, theta, t_grid, x_centers, dx):
    theta_right = _gated(theta, t_grid[1:][:, None], x_centers[None, :])
    out = []
    for path in _oracle_paths(genspec, lo, hi):
        xt, qv_cells, drift_cells = _oracle_model_cells(genspec, path, t_grid)
        hinges = np.maximum(xt[:, None] - x_centers[None, :], 0.0)
        dh = np.diff(hinges, axis=0)
        lhs = float(np.sum(theta_right * dh) * dx)
        th_left = _gated(theta, t_grid[:-1], xt[:-1])
        qv_term = 0.5 * float(np.sum(th_left * qv_cells))
        drift_term = float(np.sum(theta.integral_to(t_grid[:-1], xt[:-1]) * drift_cells))
        jump_term = 0.0
        jt = path.jump_times(np.inf)
        for s in jt[jt <= t_grid[-1]]:
            before = path.eval_left(s)
            after = path.eval(s)
            jump_term += theta.hinge_integral(float(s), float(before), float(after), float(after))
        out.append((lhs, qv_term, drift_term, jump_term,
                    float(np.sum(qv_cells)), float(np.sum(np.abs(drift_cells)))))
    return out


def _kink_lhs(lo, hi, genspec, fexpr, t_grid):
    f = make_function(fexpr)
    out = []
    for path in _oracle_paths(genspec, lo, hi):
        xt, qv_cells, _ = _oracle_model_cells(genspec, path, t_grid)
        on_kink = np.asarray(f.nondiff_indicator(t_grid[:-1], xt[:-1]), dtype=bool)
        out.append(float(np.sum(qv_cells[on_kink])))
    return out


def _oracle_pass(genspec, theta, t_grid, x_grid, n, fexpr):
    chunk = _surface_chunk(n)
    s = np.zeros((t_grid.size, x_grid.size))
    ss = np.zeros_like(s)
    for part_s, part_ss in map_chunked(_hinge_sums, n, chunk=chunk, args=(genspec, t_grid, x_grid)):
        s += part_s
        ss += part_ss
    x_centers = 0.5 * (x_grid[:-1] + x_grid[1:])
    dx = float(x_grid[1] - x_grid[0])
    terms = np.asarray(map_chunked(
        _identity_terms, n, chunk=chunk, args=(genspec, theta, t_grid, x_centers, dx)))
    kink = np.asarray(map_chunked(_kink_lhs, n, chunk=chunk, args=(genspec, fexpr, t_grid)))
    return s, ss, terms, kink


_ORACLE_SPECS = {
    "brownian": GeneratorSpec(kind="brownian", n_steps=64, seed=31),
    "euler_drift": GeneratorSpec(kind="euler_sde", n_steps=64, b="const(0.5)",
                                 sigma="abs_shift(0.5, 0.5)", seed=32),
    "jump_diffusion": GeneratorSpec(kind="jump_diffusion", n_steps=64, jump_rate=4.0,
                                    b="const(-0.25)", seed=33),
    "compound_poisson": GeneratorSpec(kind="compound_poisson", n_steps=64, jump_rate=4.0,
                                      jump_law="normal(0.5, 1.0)", seed=34),
    # 70 * (0.7 / 70) lies past 0.7, so a jump at the last grid time falls
    # after the t-grid's end and must not enter the jump term
    "grid_past_horizon": GeneratorSpec(kind="compound_poisson", n_steps=70, horizon=0.7,
                                       jump_rate=4.0, jump_law="normal(0.0, 0.5)", seed=35),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_paths,kind", [(130, k) for k in _ORACLE_SPECS] + [(600, "brownian")])
def test_one_pass_matches_per_path_loops_bitwise(kind, n_paths, workers):
    # 130 paths split into 16-path chunks; 600 paths into 75-path chunks,
    # each generated as a 64-row and an 11-row block.  The noisy theta
    # reports junk outside its box, which only the gate keeps out.
    spec = _ORACLE_SPECS[kind]
    theta = NoisyBox(0.25, 0.75, -0.5, 1.0)
    t_grid = np.linspace(0.0, spec.horizon, 33)
    x_grid = np.linspace(-0.5, 1.0, 17)
    got = _one_pass(spec, theta, t_grid, x_grid, n_paths, "abs", workers=workers)
    want = _oracle_pass(spec, theta, t_grid, x_grid, n_paths, "abs")
    assert got[2].shape == (n_paths, 6) and got[3].shape == (n_paths,)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    if kind != "brownian":
        assert np.any(got[2][:, 2] != 0.0) or np.any(got[2][:, 3] != 0.0)
    if kind == "grid_past_horizon":
        assert spec.grid()[-1] > spec.horizon and generate(spec, n_paths).marks[:, -1].any()


def test_run_identity_reports_are_functions_of_the_pass():
    spec = _ORACLE_SPECS["jump_diffusion"]
    theta = BoxIndicator(0.0, 1.0, -1.0, 1.0)
    run = run_identity(spec, theta, 130, n_t=32, n_x=16, f=make_function("abs"), workers=2)
    t_grid = np.linspace(0.0, spec.horizon, 33)
    x_grid = np.linspace(-1.0, 1.0, 17)
    s, ss, terms, kink = _oracle_pass(spec, theta, t_grid, x_grid, 130, "abs")
    surface = CallSurface.from_sums(t_grid, x_grid, s, ss, 130)
    assert run.surface.to_csv() == surface.to_csv()
    assert run.identity == occupation_identity_check(theta, terms, t_grid, x_grid)
    assert run.kink == kink_identity_check(spec, make_function("abs"), surface, kink)
    assert run.identity.rhs_drift_term != 0.0 and run.identity.rhs_jump_term != 0.0


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
    surface = CallSurface(t_grid=t_grid, x_grid=x_grid, values=values, stderr=stderr, n_paths=2)
    text = surface.to_csv()
    assert text == _csv_writer_oracle(surface)
    assert text.count("\n") == 1 + t_grid.size * x_grid.size
