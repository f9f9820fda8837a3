import numpy as np
import pytest

from qvlab.errors import ConfigurationError
from qvlab.functions import _REGISTRY, make_function

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

# (t, x) points on each builtin's kinks, at the edges of a bump's support, or
# at the origin for a builtin with neither
KINKS = {
    "abs": [(0.3, 0.0)],
    "relu": [(0.3, 0.0)],
    "square": [(0.3, 0.0)],
    "identity": [(0.3, 0.0)],
    "piecewise_linear": [(0.3, -0.5), (0.3, 0.5)],
    "moving_kink(k_jump=0.5)": [(0.2, 0.0), (0.5, 1.0), (0.7, 1.0), (0.7, 0.0)],
    "scaled_step(t1=0.5, phi=abs)": [(0.2, 0.0), (0.5, 0.0), (0.7, 0.0)],
    "bump": [(0.3, -1.0), (0.3, 1.0)],
    "ramp_bump": [(0.3, -1.0), (0.3, 1.0)],
}


def _quotient(f, a, t, x):
    """The difference quotient (f(t, x + a) - f(t, x)) / a."""
    return (f(t, np.asarray(x) + a) - f(t, x)) / a


def test_nabla_examples():
    sq = make_function("square")
    for x, a in [(1.0, 0.25), (-2.0, 0.5), (3.0, 0.0625)]:
        assert _quotient(sq, a, 0.0, x) == pytest.approx(2 * x + a, rel=1e-12)
    f = make_function("abs")
    assert _quotient(f, 0.5, 0.0, 0.0) == 1.0
    assert _quotient(f, -0.5, 0.0, 0.0) == -1.0


@pytest.mark.parametrize("expr", ALL_BUILTINS)
def test_dx_exact_is_the_max_of_the_one_sided_derivatives(expr):
    # the limsup convention, bit for bit, at random points and at the kinks
    f = make_function(expr)
    rng = np.random.default_rng(7)
    t = np.concatenate([rng.uniform(0.0, 1.0, 2000), [p[0] for p in KINKS[expr]]])
    x = np.concatenate([rng.uniform(-1.5, 1.5, 2000), [p[1] for p in KINKS[expr]]])
    want = np.maximum(f.dx_left(t, x), f.dx_right(t, x))
    got = np.asarray(f.dx_exact(t, x), dtype=float)
    assert got.shape == t.shape and got.tobytes() == np.asarray(want, dtype=float).tobytes()


@pytest.mark.parametrize("expr", ALL_BUILTINS)
def test_one_sided_limits_of_difference_quotients(expr):
    # forward quotients approach dx_right, backward approach dx_left
    f = make_function(expr)
    pts = [(0.2, 0.0), (0.7, 0.5), (0.7, -0.8), (0.5, 1.0)]
    for t, x in pts:
        fwd = _quotient(f, 1e-7, t, x)
        bwd = _quotient(f, -1e-7, t, x)
        assert fwd == pytest.approx(float(f.dx_right(t, x)), abs=1e-5)
        assert bwd == pytest.approx(float(f.dx_left(t, x)), abs=1e-5)


@pytest.mark.parametrize("expr", ALL_BUILTINS)
def test_nabla_hat_converges_to_derivative_gap(expr):
    # the right minus the left difference quotient tends to D_x^+ f - D_x^- f
    f = make_function(expr)
    for t, x in [(0.6, 0.0), (0.6, 0.5), (0.3, -0.7)]:
        gap = float(f.dx_right(t, x)) - float(f.dx_left(t, x))
        assert _quotient(f, 1e-7, t, x) - _quotient(f, -1e-7, t, x) == pytest.approx(gap, abs=1e-5)


def test_registry_metadata():
    lib = _REGISTRY
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
    assert f.time_jumps == (0.5,)


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

