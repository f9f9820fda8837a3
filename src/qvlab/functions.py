"""Functions f(t, x): locally Lipschitz in x, cadlag in t.

The commands read four facts about f, and each builtin declares them: its
values, its x-derivative in the limsup convention (dx_exact), its
nondifferentiability set and the times at which it jumps in t.  The limsup
of difference quotients equals max(left, right) wherever one-sided
derivatives exist and the true derivative wherever f is differentiable; the
one-sided x-derivatives are declared next to it as its oracle.  A function
crosses to a pool worker as its make_function expression (the suites'
function and call_surface.run_identity's take one), which the worker builds
again: its callables do not pickle.  The identity's test function theta is
no PathFunction: it is a generators.Box of its corners, which pickles as it
is.  make_function builds an expression from the name -> factory table
_REGISTRY with generators.build, which says what it refuses.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .generators import build


class PathFunction(NamedTuple):
    """f(t, x) with its analytic metadata.

    evaluate broadcasts over numpy arrays in x (and t).  dx_exact is the
    total limsup-convention x-derivative, and dx_left and dx_right are the
    one-sided x-derivatives.  time_jumps holds the times at which f jumps
    in t.  nondiff_indicator(t, x) -> bool marks the complement of the
    differentiability set; None means unknown.
    """

    evaluate: Callable
    dx_exact: Callable
    dx_left: Callable | None = None
    dx_right: Callable | None = None
    time_jumps: tuple = ()
    nondiff_indicator: Callable | None = None

    def __call__(self, t, x):
        return self.evaluate(t, x)


# ---------------------------------------------------------------------------
# builtins


def _sign_limsup(u):
    # limsup derivative of |.| : +1 at the kink
    return np.where(np.asarray(u) >= 0.0, 1.0, -1.0)


def _make_abs() -> PathFunction:
    return PathFunction(
        evaluate=lambda t, x: np.abs(np.asarray(x, dtype=float)),
        dx_exact=lambda t, x: _sign_limsup(x),
        dx_left=lambda t, x: np.where(np.asarray(x) <= 0.0, -1.0, 1.0),
        dx_right=lambda t, x: np.where(np.asarray(x) >= 0.0, 1.0, -1.0),
        nondiff_indicator=lambda t, x: np.asarray(x) == 0.0,
    )


def _make_relu(k=0.0) -> PathFunction:
    k = float(k)
    return PathFunction(
        evaluate=lambda t, x: np.maximum(np.asarray(x, dtype=float) - k, 0.0),
        dx_exact=lambda t, x: np.where(np.asarray(x) >= k, 1.0, 0.0),
        dx_left=lambda t, x: np.where(np.asarray(x) <= k, 0.0, 1.0),
        dx_right=lambda t, x: np.where(np.asarray(x) >= k, 1.0, 0.0),
        nondiff_indicator=lambda t, x: np.asarray(x) == k,
    )


def _make_square() -> PathFunction:
    return PathFunction(
        evaluate=lambda t, x: np.asarray(x, dtype=float) ** 2,
        dx_exact=lambda t, x: 2.0 * np.asarray(x, dtype=float),
        dx_left=lambda t, x: 2.0 * np.asarray(x, dtype=float),
        dx_right=lambda t, x: 2.0 * np.asarray(x, dtype=float),
        nondiff_indicator=lambda t, x: np.zeros_like(np.asarray(x), dtype=bool),
    )


def _make_piecewise_linear(k0=-0.5, c0=1.0, k1=0.5, c1=-0.5, slope=0.25) -> PathFunction:
    """slope*x + c0|x-k0| + c1|x-k1|: finitely many kinks."""
    k0, c0, k1, c1, slope = map(float, (k0, c0, k1, c1, slope))
    kinks = tuple(k for k, c in ((k0, c0), (k1, c1)) if c != 0.0)

    def ev(t, x):
        x = np.asarray(x, dtype=float)
        return slope * x + c0 * np.abs(x - k0) + c1 * np.abs(x - k1)

    def dleft(t, x):
        x = np.asarray(x)
        return slope + c0 * np.where(x <= k0, -1.0, 1.0) + c1 * np.where(x <= k1, -1.0, 1.0)

    def dright(t, x):
        x = np.asarray(x)
        return slope + c0 * np.where(x >= k0, 1.0, -1.0) + c1 * np.where(x >= k1, 1.0, -1.0)

    return PathFunction(
        evaluate=ev,
        dx_exact=lambda t, x: np.maximum(dleft(t, x), dright(t, x)),
        dx_left=dleft,
        dx_right=dright,
        nondiff_indicator=lambda t, x: np.isin(np.asarray(x), kinks),
    )


def _make_moving_kink(k_jump=0.5, k_size=1.0) -> PathFunction:
    """|x - k(t)| with k piecewise constant, jumping at t = k_jump."""
    k_jump, k_size = float(k_jump), float(k_size)

    def level(t):
        return np.where(np.asarray(t) >= k_jump, k_size, 0.0)

    def ev(t, x):
        return np.abs(np.asarray(x, dtype=float) - level(t))

    return PathFunction(
        evaluate=ev,
        dx_exact=lambda t, x: _sign_limsup(np.asarray(x) - level(t)),
        dx_left=lambda t, x: np.where(np.asarray(x) <= level(t), -1.0, 1.0),
        dx_right=lambda t, x: np.where(np.asarray(x) >= level(t), 1.0, -1.0),
        time_jumps=(k_jump,),
        nondiff_indicator=lambda t, x: np.asarray(x) == level(t),
    )


def _bump_profile(c, w):
    c, w = float(c), float(w)

    def phi(x):
        u = (np.asarray(x, dtype=float) - c) / w
        out = np.zeros_like(u, dtype=float)
        m = np.abs(u) < 1.0
        out[m] = np.exp(-1.0 / (1.0 - u[m] ** 2))
        return out

    def dphi(x):
        u = (np.asarray(x, dtype=float) - c) / w
        out = np.zeros_like(u, dtype=float)
        m = np.abs(u) < 1.0
        um = u[m]
        out[m] = np.exp(-1.0 / (1.0 - um**2)) * (-2.0 * um / (1.0 - um**2) ** 2) / w
        return out

    return phi, dphi


def _make_bump(c=0.0, w=1.0) -> PathFunction:
    phi, dphi = _bump_profile(c, w)
    return PathFunction(
        evaluate=lambda t, x: phi(x),
        dx_exact=lambda t, x: dphi(x),
        dx_left=lambda t, x: dphi(x),
        dx_right=lambda t, x: dphi(x),
        nondiff_indicator=lambda t, x: np.zeros_like(np.asarray(x), dtype=bool),
    )


def _make_scaled_step(t1=0.5, phi="bump", c=0.0, w=1.0) -> PathFunction:
    """phi(x) * 1{t >= t1}: a single time discontinuity."""
    t1 = float(t1)
    if phi == "bump":
        prof, dprof = _bump_profile(c, w)
        nondiff = lambda t, x: np.zeros_like(np.asarray(x), dtype=bool)
        dl = lambda t, x: np.where(np.asarray(t) >= t1, 1.0, 0.0) * dprof(x)
        dr = dl
        dexact = dl
    elif phi == "abs":
        prof = lambda x: np.abs(np.asarray(x, dtype=float))
        on = lambda t: np.where(np.asarray(t) >= t1, 1.0, 0.0)
        dl = lambda t, x: on(t) * np.where(np.asarray(x) <= 0.0, -1.0, 1.0)
        dr = lambda t, x: on(t) * np.where(np.asarray(x) >= 0.0, 1.0, -1.0)
        dexact = lambda t, x: on(t) * _sign_limsup(x)
        nondiff = lambda t, x: (np.asarray(t) >= t1) & (np.asarray(x) == 0.0)
    else:
        raise ValueError(f"unknown profile {phi!r}")

    def ev(t, x):
        return np.where(np.asarray(t) >= t1, 1.0, 0.0) * prof(x)

    return PathFunction(
        evaluate=ev,
        dx_exact=dexact,
        dx_left=dl,
        dx_right=dr,
        time_jumps=(t1,),
        nondiff_indicator=nondiff,
    )


def _make_ramp_bump(c=0.0, w=1.0, rate=1.0) -> PathFunction:
    """(rate * t) * bump(x): absolutely continuous time variation."""
    phi, dphi = _bump_profile(c, w)
    rate = float(rate)

    return PathFunction(
        evaluate=lambda t, x: rate * np.asarray(t, dtype=float) * phi(x),
        dx_exact=lambda t, x: rate * np.asarray(t, dtype=float) * dphi(x),
        dx_left=lambda t, x: rate * np.asarray(t, dtype=float) * dphi(x),
        dx_right=lambda t, x: rate * np.asarray(t, dtype=float) * dphi(x),
        nondiff_indicator=lambda t, x: np.zeros_like(np.asarray(x), dtype=bool),
    )


def _make_identity() -> PathFunction:
    return PathFunction(
        evaluate=lambda t, x: np.asarray(x, dtype=float) + 0.0,
        dx_exact=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        dx_left=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        dx_right=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
        nondiff_indicator=lambda t, x: np.zeros_like(np.asarray(x), dtype=bool),
    )


_REGISTRY: dict[str, Callable] = {
    "abs": _make_abs,
    "relu": _make_relu,
    "square": _make_square,
    "identity": _make_identity,
    "piecewise_linear": _make_piecewise_linear,
    "moving_kink": _make_moving_kink,
    "scaled_step": _make_scaled_step,
    "bump": _make_bump,
    "ramp_bump": _make_ramp_bump,
}


def make_function(expr: str) -> PathFunction:
    """Instantiate from an expression like 'moving_kink(k_jump=0.5)'."""
    return build(expr, _REGISTRY, "function")
