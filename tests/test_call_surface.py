import numpy as np
import pytest
from scipy import integrate, stats

from qvlab.call_surface import (
    BoxIndicator,
    CallSurface,
    convexity_defect,
    estimate_call_surface,
    kink_identity_check,
    make_theta,
    monotonicity_check,
    occupation_identity_check,
)
from qvlab.functions import make_function
from qvlab.generators import GeneratorSpec, generate
from qvlab.paths import PathEnsemble


def _surface(spec, n_paths, t_grid, x_grid):
    return estimate_call_surface(spec, np.asarray(t_grid), np.asarray(x_grid), n_paths=n_paths)


def test_deterministic_path_surface_exact():
    spec = GeneratorSpec(kind="euler_sde", n_steps=16, x0=1.0,
                         sigma="const(0.0)", b="const(0.0)", seed=0)
    surf = _surface(spec, 4, np.linspace(0, 1, 5), np.linspace(-1, 2, 7))
    want = np.maximum(1.0 - surf.x_grid, 0.0)
    assert np.array_equal(surf.values, np.tile(want, (5, 1)))
    assert np.all(surf.stderr == 0.0)


def test_brownian_call_value_oracle():
    # C(1, 0) for a standard normal: quadrature of the positive part
    oracle, _ = integrate.quad(lambda z: max(z, 0.0) * stats.norm.pdf(z), -10, 10)
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=4242)
    surf = _surface(spec, 10**4, [0.0, 1.0], np.linspace(-2, 2, 41))
    j = int(np.argmin(np.abs(surf.x_grid)))
    got = surf.values[-1, j]
    assert abs(got - oracle) <= 3.0 * surf.stderr[-1, j]
    assert abs(oracle - 1.0 / np.sqrt(2 * np.pi)) < 1e-12


def test_surface_zero_beyond_max_value():
    spec = GeneratorSpec(kind="brownian", n_steps=32, seed=9)
    ens = generate(spec, 50)
    top = max(p.values.max() for p in ens)
    surf = estimate_call_surface(ens, np.linspace(0, 1, 5), np.asarray([top + 0.5, top + 1.0]))
    assert np.all(surf.values == 0.0)


def test_surface_lower_bound_and_monotone_in_x():
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=11)
    surf = _surface(spec, 2000, np.linspace(0, 1, 9), np.linspace(-2, 2, 33))
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
    surf = _surface(spec, 5000, np.linspace(0, 1, 9), np.linspace(-3, 3, 61))
    defect = convexity_defect(surf)
    assert defect >= -64.0 * np.finfo(float).eps * float(surf.values.max())
    # and real curvature is present in the bulk
    mid = surf.values[-1, 25:35]
    assert np.all(mid[:-2] - 2 * mid[1:-1] + mid[2:] > 1e-4)


def test_monotonicity_brownian():
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=33)
    surf = _surface(spec, 4000, np.linspace(0, 1, 17), np.linspace(-2, 2, 17))
    rep = monotonicity_check(surf, spec)
    assert not rep.skipped
    assert rep.violations == 0


def test_monotonicity_pure_drift_exact():
    spec = GeneratorSpec(kind="euler_sde", n_steps=64, sigma="const(0.0)", b="const(1.0)", seed=0)
    surf = _surface(spec, 2, np.linspace(0, 1, 9), np.linspace(0, 1, 9))
    # C(t, x) = (t - x)_+ exactly
    want = np.maximum(surf.t_grid[:, None] - surf.x_grid[None, :], 0.0)
    assert np.allclose(surf.values, want, atol=1e-12)
    rep = monotonicity_check(surf, spec)
    assert rep.violations == 0


def test_monotonicity_compound_poisson_martingale():
    spec = GeneratorSpec(kind="compound_poisson", n_steps=256, jump_rate=3.0,
                         jump_law="normal(0.0, 1.0)", seed=55)
    surf = _surface(spec, 4000, np.linspace(0, 1, 9), np.linspace(-2, 2, 17))
    rep = monotonicity_check(surf, spec)
    assert not rep.skipped  # martingale: zero drift allowance
    assert rep.violations == 0


def test_monotonicity_skipped_without_drift_model():
    spec = GeneratorSpec(kind="euler_sde", n_steps=16, b="linear(0, 1)", seed=0)
    surf = _surface(spec, 8, np.linspace(0, 1, 3), np.linspace(-1, 1, 5))
    rep = monotonicity_check(surf, spec)
    assert rep.skipped


def test_occupation_identity_brownian_small():
    spec = GeneratorSpec(kind="brownian", n_steps=256, seed=1)
    rep = occupation_identity_check(spec, "box(0.0, 1.0, -1.0, 1.0)", n_paths=2000,
                                    n_t=256, n_x=64)
    assert rep.passed
    assert rep.rhs_drift_term == 0.0 and rep.rhs_jump_term == 0.0
    assert rep.stderr > 0 and rep.budget > 0


def test_occupation_identity_deterministic_path_all_zero():
    spec = GeneratorSpec(kind="euler_sde", n_steps=64, x0=0.5,
                         sigma="const(0.0)", b="const(0.0)", seed=0)
    rep = occupation_identity_check(spec, "box(0.0, 1.0, -1.0, 1.0)", n_paths=4,
                                    n_t=64, n_x=32)
    assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passed


def test_occupation_identity_pure_drift_closed_form():
    spec = GeneratorSpec(kind="euler_sde", n_steps=256, sigma="const(0.0)", b="const(1.0)", seed=0)
    rep = occupation_identity_check(spec, "box(0.0, 1.0, 0.0, 1.0)", n_paths=4,
                                    n_t=256, n_x=64)
    assert rep.lhs == pytest.approx(0.5, abs=1e-12)
    assert rep.rhs_drift_term == pytest.approx(0.5, abs=1.0 / 256)
    assert rep.passed


def test_occupation_identity_jump_term():
    # pure-jump martingale: only the jump term balances the surface change
    spec = GeneratorSpec(kind="compound_poisson", n_steps=512, jump_rate=2.0,
                         jump_law="normal(0.0, 0.5)", seed=6)
    rep = occupation_identity_check(spec, "box(0.0, 1.0, -1.5, 1.5)", n_paths=4000,
                                    n_t=128, n_x=64)
    assert rep.rhs_qv_term == 0.0
    assert rep.rhs_jump_term > 0.0
    assert rep.passed


def test_theta_linearity():
    spec = GeneratorSpec(kind="brownian", n_steps=128, seed=14)
    kw = dict(n_paths=500, n_t=64, n_x=64)
    left = occupation_identity_check(spec, "box(0.0, 1.0, -1.0, 0.0)", **kw)
    right = occupation_identity_check(spec, "box(0.0, 1.0, 0.0, 1.0)", **kw)
    whole = occupation_identity_check(spec, "box(0.0, 1.0, -1.0, 1.0)", **kw)
    # the x-grids of the halves refine the whole at equal spacing, so the
    # split sums agree to quadrature tolerance
    assert whole.lhs == pytest.approx(left.lhs + right.lhs, abs=2e-2)
    assert whole.rhs == pytest.approx(left.rhs + right.rhs, abs=2e-2)


def test_theta_outside_support_irrelevant():
    # a test function that adds junk outside its declared box must produce
    # the identical report: the machinery only ever queries inside the box
    class NoisyBox(BoxIndicator):
        def _eval(self, t, x):
            t0, t1, lo, hi = self.box
            t = np.asarray(t, dtype=float)
            x = np.asarray(x, dtype=float)
            inside = (t >= t0) & (t <= t1) & (x >= lo) & (x <= hi)
            return np.where(inside, 1.0, 7.5)

    spec = GeneratorSpec(kind="brownian", n_steps=128, seed=14)
    clean = occupation_identity_check(spec, BoxIndicator(0.0, 1.0, -1.0, 1.0),
                                      n_paths=300, n_t=64, n_x=32)
    noisy = occupation_identity_check(spec, NoisyBox(0.0, 1.0, -1.0, 1.0),
                                      n_paths=300, n_t=64, n_x=32)
    assert clean.lhs == noisy.lhs
    assert clean.rhs_qv_term == noisy.rhs_qv_term


def test_identity_refinement_stability():
    spec = GeneratorSpec(kind="brownian", n_steps=512, seed=77)
    coarse = occupation_identity_check(spec, "box(0.0, 1.0, -1.0, 1.0)",
                                       n_paths=1000, n_t=128, n_x=32)
    fine = occupation_identity_check(spec, "box(0.0, 1.0, -1.0, 1.0)",
                                     n_paths=1000, n_t=256, n_x=64)
    assert abs(fine.lhs - coarse.lhs) <= coarse.budget + 3 * (coarse.stderr + fine.stderr)


def test_kink_identity_abs_and_square(brownian_200_l12):
    spec = GeneratorSpec(kind="brownian", n_steps=4096, seed=12345)
    t_grid = np.linspace(0, 1, 65)
    x_grid = np.linspace(-2, 2, 65)  # contains the kink column x = 0
    surf = estimate_call_surface(spec, t_grid, x_grid, n_paths=2000)
    rep = kink_identity_check(spec, make_function("abs"), surf, n_paths=2000)
    assert not rep.skipped and rep.passed
    assert rep.lhs <= rep.lhs_budget + 1e-15

    rep2 = kink_identity_check(spec, make_function("square"), surf, n_paths=500)
    assert rep2.lhs == 0.0 and rep2.rhs == 0.0 and rep2.passed


def test_kink_identity_skipped_without_metadata():
    from qvlab.functions import PathFunction

    bare = PathFunction(name="bare", evaluate=lambda t, x: 0.0 * np.asarray(x))
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=2)
    surf = _surface(spec, 16, np.linspace(0, 1, 5), np.linspace(-1, 1, 9))
    rep = kink_identity_check(spec, bare, surf, n_paths=16)
    assert rep.skipped


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
        estimate_call_surface(spec, np.linspace(0, 1, 3), np.linspace(-1, 1, 3), n_paths=0)
