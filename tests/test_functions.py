import numpy as np
import pytest

from qvlab.errors import ConfigurationError
from qvlab.functions import LIMSUP_WIDTH, builtin_library, dx_limsup, make_function, nabla_a

ALL_BUILTINS = [
    "abs",
    "relu",
    "square",
    "identity",
    "piecewise_linear",
    "moving_kink(k_jump=0.5)",
    "scaled_step(t1=0.5, phi=abs)",
    "bump",
    "ramp_bump",
]


def test_nabla_examples():
    sq = make_function("square")
    for x, a in [(1.0, 0.25), (-2.0, 0.5), (3.0, 0.0625)]:
        assert nabla_a(sq, a, 0.0, x) == pytest.approx(2 * x + a, rel=1e-12)
    f = make_function("abs")
    assert nabla_a(f, 0.5, 0.0, 0.0) == 1.0
    assert nabla_a(f, -0.5, 0.0, 0.0) == -1.0
    with pytest.raises(ValueError):
        nabla_a(f, 0.0, 0.0, 0.0)


def test_dx_limsup_abs_kink():
    f = make_function("abs")
    assert dx_limsup(f, 0.0, 0.0) == 1.0  # limsup convention picks the max one-sided slope


def test_dx_limsup_smooth_point():
    sq = make_function("square")
    assert abs(dx_limsup(sq, 0.0, 3.0) - 6.0) <= 2 * LIMSUP_WIDTH + 1e-9


@pytest.mark.parametrize("expr", ALL_BUILTINS)
def test_dx_limsup_matches_one_sided_oracle(expr):
    f = make_function(expr)
    rng = np.random.default_rng(7)
    for _ in range(10):
        t = float(rng.uniform(0, 1))
        x = float(rng.uniform(-1.5, 1.5))
        want = max(float(f.dx_left(t, x)), float(f.dx_right(t, x)))
        got = dx_limsup(f, t, x)
        assert got == pytest.approx(want, abs=5e-4)


@pytest.mark.parametrize("expr", ALL_BUILTINS)
def test_one_sided_limits_of_difference_quotients(expr):
    # forward quotients approach dx_right, backward approach dx_left
    f = make_function(expr)
    pts = [(0.2, 0.0), (0.7, 0.5), (0.7, -0.8), (0.5, 1.0)]
    for t, x in pts:
        fwd = nabla_a(f, 1e-7, t, x)
        bwd = nabla_a(f, -1e-7, t, x)
        assert fwd == pytest.approx(float(f.dx_right(t, x)), abs=1e-5)
        assert bwd == pytest.approx(float(f.dx_left(t, x)), abs=1e-5)


@pytest.mark.parametrize("expr", ALL_BUILTINS)
def test_nabla_hat_converges_to_derivative_gap(expr):
    # the right minus the left difference quotient tends to D_x^+ f - D_x^- f
    f = make_function(expr)
    for t, x in [(0.6, 0.0), (0.6, 0.5), (0.3, -0.7)]:
        gap = float(f.dx_right(t, x)) - float(f.dx_left(t, x))
        assert nabla_a(f, 1e-7, t, x) - nabla_a(f, -1e-7, t, x) == pytest.approx(gap, abs=1e-5)


def test_time_variation_cases():
    # total variation of t -> f(t, x) over (0, T]
    time_variation = lambda f, x, T: f.dt_measure(x, 0.0, T)[1]
    assert time_variation(make_function("abs"), 1.3, 1.0) == 0.0
    step = make_function("scaled_step(t1=0.25, phi=abs)")
    assert time_variation(step, -2.0, 1.0) == 2.0  # |g(x)| = |x|
    assert time_variation(step, -2.0, 0.2) == 0.0  # before the jump
    ramp = make_function("ramp_bump(c=0.0, w=1.0, rate=1.0)")
    b = make_function("bump")
    assert time_variation(ramp, 0.3, 0.8) == pytest.approx(0.8 * float(b(0.0, 0.3)), rel=1e-12)


def test_time_variation_additive_over_intervals():
    f = make_function("moving_kink(k_jump=0.5)")
    x = 0.7
    s1, tv1 = f.dt_measure(x, 0.0, 0.4)
    s2, tv2 = f.dt_measure(x, 0.4, 1.0)
    s, tv = f.dt_measure(x, 0.0, 1.0)
    assert tv1 + tv2 == tv and s1 + s2 == s


def test_registry_metadata():
    lib = builtin_library()
    assert set(lib) >= {"abs", "relu", "square", "piecewise_linear", "moving_kink",
                        "scaled_step", "bump", "ramp_bump"}
    f = lib["abs"]()
    assert bool(f.nondiff_indicator(0.3, 0.0)) and not bool(f.nondiff_indicator(0.3, 0.1))
    sq = lib["square"]()
    assert not bool(sq.nondiff_indicator(0.0, 0.0))
    assert float(sq.dx_exact(0.0, 1.5)) == 3.0


def test_moving_kink_metadata():
    f = make_function("moving_kink(k_jump=0.5)")
    # kink tracks the level: x = 0 before the jump, x = 1 after
    assert bool(f.nondiff_indicator(0.2, 0.0)) and not bool(f.nondiff_indicator(0.2, 1.0))
    assert bool(f.nondiff_indicator(0.7, 1.0)) and not bool(f.nondiff_indicator(0.7, 0.0))
    (tj, profile), = f.time_jumps
    assert tj == 0.5
    xs = np.asarray([-1.0, 0.0, 2.0])
    assert np.allclose(profile(xs), np.abs(xs - 1.0) - np.abs(xs))
    signed, tv = f.dt_measure(0.25, 0.0, 1.0)
    assert signed == pytest.approx(abs(0.25 - 1.0) - 0.25)
    assert tv == abs(signed)


def test_cadlag_in_t():
    f = make_function("moving_kink(k_jump=0.5)")
    x = 0.3
    at = float(f(0.5, x))
    after = float(f(0.5 + 1e-12, x))
    before = float(f(0.5 - 1e-12, x))
    assert at == after  # right-continuous
    assert at != before  # genuine left limit


def test_unknown_function_rejected():
    with pytest.raises(ConfigurationError):
        make_function("mystery(1.0)")

