"""Call-surface estimation and the occupation-time identity checks.

The surface C(t, x) = E[(X_t - x)_+] encodes the marginal laws; its time
increments tested against bounded theta satisfy an identity whose right side
splits into a continuous-QV term, a drift term and a jump term.  All three
are computed per path so the pass test compares paired Monte Carlo samples
(3 sigma) plus an explicit, separately reported discretization budget.

Conventions: d_t C increments over (t_i, t_{i+1}] pair with theta at the
right endpoint (cadlag measure); model [X]^c cell increments pair with theta
at the left endpoint (previsible evaluation).  Model QV comes from the
generator (sigma^2 dt per diffusive cell, 0 for jump cells), not realized
squared increments: the identity is in expectation and the calculus module
independently validates realized against model QV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from ._parallel import map_chunked
from .functions import PathFunction
from .generators import GeneratorSpec, iter_paths, make_coefficient
from .paths import PathEnsemble


@dataclass(frozen=True)
class TestFunction:
    """Bounded theta(t, x) with declared support box (t0, t1, x_lo, x_hi)."""

    evaluate: object
    box: tuple
    bound: float

    def __call__(self, t, x):
        return self.evaluate(t, x)


@dataclass(frozen=True)
class BoxIndicator(TestFunction):
    """theta = 1 on [t0, t1] x [x_lo, x_hi]."""

    def __init__(self, t0, t1, x_lo, x_hi):
        object.__setattr__(self, "box", (float(t0), float(t1), float(x_lo), float(x_hi)))
        object.__setattr__(self, "bound", 1.0)
        object.__setattr__(self, "evaluate", self._eval)

    def _eval(self, t, x):
        t0, t1, lo, hi = self.box
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return ((t >= t0) & (t <= t1) & (x >= lo) & (x <= hi)).astype(float)

    def integral_to(self, t, z):
        t0, t1, lo, hi = self.box
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        inside = (t >= t0) & (t <= t1)
        return np.where(inside, np.clip(z, lo, hi) - lo, 0.0)

    def hinge_integral(self, t, a, b, xt):
        """Oriented int_a^b (xt - x) theta(t, x) dx, exact for the box."""
        t0, t1, lo, hi = self.box
        if not (t0 <= t <= t1):
            return 0.0
        sign = 1.0
        if b < a:
            a, b, sign = b, a, -1.0
        a = max(a, lo)
        b = min(b, hi)
        if b <= a:
            return 0.0
        # int_a^b (xt - x) dx
        return sign * (xt * (b - a) - 0.5 * (b * b - a * a))


def make_theta(expr_or_theta) -> TestFunction:
    if isinstance(expr_or_theta, TestFunction):
        return expr_or_theta
    from .generators import parse_expression

    name, args, kwargs = parse_expression(expr_or_theta)
    if name != "box":
        raise ValueError(f"unknown test function {name!r}")
    vals = [kwargs.get(k, None) for k in ("t0", "t1", "x_lo", "x_hi")]
    for i, a in enumerate(args):
        vals[i] = a
    if any(v is None for v in vals):
        raise ValueError("box requires t0, t1, x_lo, x_hi")
    return BoxIndicator(*[float(v) for v in vals])


# ---------------------------------------------------------------------------
# surface estimation


@dataclass(frozen=True)
class CallSurface:
    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    n_paths: int

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["t", "x", "C", "stderr"])
        for i, t in enumerate(self.t_grid):
            for j, xx in enumerate(self.x_grid):
                w.writerow([repr(float(t)), repr(float(xx)),
                            repr(float(self.values[i, j])), repr(float(self.stderr[i, j]))])
        return buf.getvalue()

    def column(self, x: float) -> np.ndarray:
        j = int(np.argmin(np.abs(self.x_grid - x)))
        return self.values[:, j]


def _hinge_sums(lo, hi, genspec: GeneratorSpec, t_grid, x_grid):
    t_grid = np.asarray(t_grid)
    x_grid = np.asarray(x_grid)
    s = np.zeros((t_grid.size, x_grid.size))
    ss = np.zeros_like(s)
    for path in iter_paths(genspec, lo, hi):
        xt = path.eval_many(t_grid)
        h = np.maximum(xt[:, None] - x_grid[None, :], 0.0)
        s += h
        ss += h * h
    return [(s, ss)]


def estimate_call_surface(ensemble_or_spec, t_grid, x_grid, n_paths=None, workers=1) -> CallSurface:
    """Per-cell mean and standard error of (X_t - x)_+.

    Accepts a PathEnsemble, or a GeneratorSpec with n_paths for the chunked
    (optionally parallel) accumulation path.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    if isinstance(ensemble_or_spec, PathEnsemble):
        ens = ensemble_or_spec
        n = len(ens)
        s = np.zeros((t_grid.size, x_grid.size))
        ss = np.zeros_like(s)
        for path in ens:
            xt = path.eval_many(t_grid)
            h = np.maximum(xt[:, None] - x_grid[None, :], 0.0)
            s += h
            ss += h * h
    else:
        if not n_paths or n_paths < 1:
            raise ValueError("n_paths required when estimating from a spec")
        n = n_paths
        sums = map_chunked(
            _hinge_sums, n, workers=workers, chunk=_surface_chunk(n), args=(ensemble_or_spec, t_grid, x_grid)
        )
        s = np.zeros((t_grid.size, x_grid.size))
        ss = np.zeros_like(s)
        for part_s, part_ss in sums:
            s += part_s
            ss += part_ss
    mean = s / n
    var = np.maximum(ss / n - mean * mean, 0.0)
    stderr = np.sqrt(var / max(n - 1, 1))
    return CallSurface(t_grid=t_grid, x_grid=x_grid, values=mean, stderr=stderr, n_paths=n)


def _surface_chunk(n: int) -> int:
    # fixed chunking: depends on n only, never on the worker count
    return max(1, min(256, n // 8 or 1))


def convexity_defect(surface: CallSurface) -> float:
    """Most negative second difference across t-slices (>= -ulp noise).

    Means of hinge samples are convex in exact arithmetic; IEEE rounding can
    leave ulp-scale violations, so exact nonnegativity is not asserted.
    """
    d2 = surface.values[:, :-2] - 2.0 * surface.values[:, 1:-1] + surface.values[:, 2:]
    return float(d2.min()) if d2.size else 0.0


# ---------------------------------------------------------------------------
# identity machinery


def _model_cells(genspec: GeneratorSpec, path, t_grid):
    """Model-side cell data on the t_grid: [X]^c increments and drift increments."""
    qv_rate = genspec.qv_rate()
    dt = np.diff(t_grid)
    xt = path.eval_many(t_grid)
    if qv_rate is None:
        raise ValueError(f"generator {genspec.kind!r} does not expose model QV")
    qv_cells = np.asarray(qv_rate(t_grid[:-1], xt[:-1]), dtype=float) * dt
    if genspec.kind == "brownian":
        drift_cells = np.zeros_like(dt)
    elif genspec.kind in ("euler_sde", "jump_diffusion"):
        b = make_coefficient(genspec.b)
        drift_cells = np.asarray(b(t_grid[:-1], xt[:-1]), dtype=float) * dt
    elif genspec.kind == "compound_poisson":
        from .generators import make_jump_law

        drift_cells = make_jump_law(genspec.jump_law).mean * genspec.jump_rate * dt
    else:
        raise ValueError(f"generator {genspec.kind!r} does not expose a drift model")
    return xt, qv_cells, drift_cells


def _gated(theta: TestFunction, t, x):
    """theta clipped to its declared support box: the box is authoritative,
    so values a test function reports outside it never enter the sums."""
    t0, t1, lo, hi = theta.box
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    inside = (t >= t0) & (t <= t1) & (x >= lo) & (x <= hi)
    return np.where(inside, np.asarray(theta(t, x), dtype=float), 0.0)


def _identity_terms(lo, hi, genspec: GeneratorSpec, theta: TestFunction, t_grid, x_centers, dx):
    """Per-path identity pieces.

    lhs: sum_j dx sum_i theta(t_{i+1}, x_j) (hinge(t_{i+1}) - hinge(t_i))
    qv:  1/2 sum_i theta(t_i, X_{t_i}) d[X]^c_i          (model increments)
    drift: sum_i Theta(t_i, X_{t_i}) dA_i                 (pre-jump state)
    jump: sum over marked jumps s <= t of int_{X_{s-}}^{X_s} (X_s-x) theta dx
    """
    theta_right = _gated(theta, t_grid[1:][:, None], x_centers[None, :])
    out = []
    for path in iter_paths(genspec, lo, hi):
        xt, qv_cells, drift_cells = _model_cells(genspec, path, t_grid)
        hinges = np.maximum(xt[:, None] - x_centers[None, :], 0.0)
        dh = np.diff(hinges, axis=0)
        lhs = float(np.sum(theta_right * dh) * dx)

        th_left = _gated(theta, t_grid[:-1], xt[:-1])
        qv_term = 0.5 * float(np.sum(th_left * qv_cells))

        # drift pairs with the pre-jump state: at a marked jump time the
        # inner integral's upper limit is the left limit
        states = xt[:-1]
        drift_term = float(np.sum(theta.integral_to(t_grid[:-1], states) * drift_cells))

        jump_term = 0.0
        jt = path.jump_times(np.inf)
        jt = jt[jt <= t_grid[-1]]
        for s in jt:
            before = path.eval_left(s)
            after = path.eval(s)
            jump_term += theta.hinge_integral(float(s), float(before), float(after), float(after))
        out.append((lhs, qv_term, drift_term, jump_term,
                    float(np.sum(qv_cells)), float(np.sum(np.abs(drift_cells)))))
    return out


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs_qv_term: float
    rhs_drift_term: float
    rhs_jump_term: float
    stderr: float
    lhs_stderr: float
    budget: float
    passed: bool
    n_paths: int

    @property
    def rhs(self) -> float:
        return self.rhs_qv_term + self.rhs_drift_term + self.rhs_jump_term

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs_qv_term": self.rhs_qv_term,
            "rhs_drift_term": self.rhs_drift_term,
            "rhs_jump_term": self.rhs_jump_term,
            "rhs": self.rhs,
            "abs_diff": abs(self.lhs - self.rhs),
            "stderr": self.stderr,
            "lhs_stderr": self.lhs_stderr,
            "budget": self.budget,
            "pass": self.passed,
            "n_paths": self.n_paths,
        }


def occupation_identity_check(
    genspec: GeneratorSpec,
    theta,
    n_paths: int,
    n_t: int = 256,
    n_x: int = 64,
    workers: int = 1,
    sigma_mult: float = 3.0,
) -> IdentityReport:
    """Monte Carlo check of the theta-weighted surface-increment identity.

    Pass when |LHS - RHS| <= sigma_mult * stderr(paired difference) + budget;
    the budget covers t- and x-discretization and is reported separately.
    """
    theta = make_theta(theta)
    t0, t1, x_lo, x_hi = theta.box
    horizon = genspec.horizon
    t_grid = np.linspace(0.0, horizon, n_t + 1)
    edges = np.linspace(x_lo, x_hi, n_x + 1)
    x_centers = 0.5 * (edges[:-1] + edges[1:])
    dx = float(edges[1] - edges[0])

    rows = map_chunked(
        _identity_terms,
        n_paths,
        workers=workers,
        chunk=_surface_chunk(n_paths),
        args=(genspec, theta, t_grid, x_centers, dx),
    )
    arr = np.asarray(rows)
    lhs_p, qv_p, drift_p, jump_p = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    diff = lhs_p - (qv_p + drift_p + jump_p)
    stderr = float(diff.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else float("inf")
    lhs_stderr = float(lhs_p.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else float("inf")

    dt = horizon / n_t
    budget = identity_budget(
        theta,
        dt=dt,
        dx=dx,
        horizon=horizon,
        qv_total=float(arr[:, 4].mean()),
        drift_total=float(arr[:, 5].mean()),
    )

    lhs = float(lhs_p.mean())
    report = IdentityReport(
        lhs=lhs,
        rhs_qv_term=float(qv_p.mean()),
        rhs_drift_term=float(drift_p.mean()),
        rhs_jump_term=float(jump_p.mean()),
        stderr=stderr,
        lhs_stderr=lhs_stderr,
        budget=budget,
        passed=bool(abs(float(diff.mean())) <= sigma_mult * stderr + budget),
        n_paths=n_paths,
    )
    return report


def identity_budget(theta: TestFunction, dt: float, dx: float, horizon: float, qv_total: float, drift_total: float) -> float:
    """Deterministic discretization allowance, reported next to the stderr.

    t-part: evaluation-point error of the left-sum Riemann approximations to
    the d[X]^c and dA integrals, first order in dt against the realized model
    totals; x-part: midpoint integration of the hinge-increment integrand
    (at most two slope-1 kinks per path, error dx^2/8 per kink, plus the
    smooth-curvature term); box-edge part: theta's time discontinuities at
    interior box edges can split two t-cells.
    """
    t0, t1, x_lo, x_hi = theta.box
    t_part = 2.0 * dt / horizon * (qv_total + drift_total)
    x_part = dx * dx * 1.0
    straddle = 0.0
    if t0 > 0.0 or t1 < horizon:
        straddle = 2.0 * (x_hi - x_lo) * np.sqrt(max(qv_total, 0.0) / horizon * dt)
    return float(theta.bound * (t_part + x_part + straddle))


# ---------------------------------------------------------------------------
# surface monotonicity and the kink identity


@dataclass(frozen=True)
class MonotonicityReport:
    skipped: bool
    violations: int
    worst: float
    tolerance_note: str

    def to_dict(self) -> dict:
        return {
            "skipped": self.skipped,
            "violations": self.violations,
            "worst": self.worst,
            "note": self.tolerance_note,
        }


def monotonicity_check(surface: CallSurface, genspec: GeneratorSpec, sigma_mult: float = 3.0) -> MonotonicityReport:
    """Check C(t, x) + E int_0^t |dA| is nondecreasing in t at every x.

    Uses the generator's model drift variation; reports skipped when the
    model does not expose it.
    """
    a_var = [genspec.mean_drift_variation(float(t)) for t in surface.t_grid]
    if any(v is None for v in a_var):
        return MonotonicityReport(True, 0, 0.0, "drift variation unavailable")
    a_var = np.asarray(a_var, dtype=float)
    curve = surface.values + a_var[:, None]
    slack = sigma_mult * np.sqrt(surface.stderr[:-1] ** 2 + surface.stderr[1:] ** 2)
    incr = np.diff(curve, axis=0)
    bad = incr < -slack
    worst = float(np.min(incr + slack)) if incr.size else 0.0
    return MonotonicityReport(False, int(np.sum(bad)), worst, f"tolerance {sigma_mult} pooled stderr")


@dataclass(frozen=True)
class KinkIdentityReport:
    lhs: float
    rhs: float
    lhs_budget: float
    rhs_budget: float
    passed: bool
    skipped: bool

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "lhs_budget": self.lhs_budget,
            "rhs_budget": self.rhs_budget,
            "pass": self.passed,
            "skipped": self.skipped,
        }


def _kink_lhs(lo, hi, genspec: GeneratorSpec, fexpr: str, t_grid):
    from .functions import make_function

    f = make_function(fexpr)
    out = []
    for path in iter_paths(genspec, lo, hi):
        xt, qv_cells, _ = _model_cells(genspec, path, t_grid)
        on_kink = np.asarray(f.nondiff_indicator(t_grid[:-1], xt[:-1]), dtype=bool)
        out.append(float(np.sum(qv_cells[on_kink])))
    return out


def kink_identity_check(
    genspec: GeneratorSpec,
    f: PathFunction,
    surface: CallSurface,
    n_paths: int,
    workers: int = 1,
    sigma_mult: float = 3.0,
) -> KinkIdentityReport:
    """Both sides of the nondifferentiability-set identity.

    LHS: ensemble mean of 1{(t, X_t) on the kink set} d[X]^c (model cells).
    RHS: 2 * sum over kink columns of dx * sum_t |dC|.  For continuous laws
    both are statistically zero up to declared discretization allowances:
    the LHS budget covers kink touches that are structural rather than
    generic (x0 exactly on the kink makes the t=0 cell fire on every path,
    worth one qv-rate * dt); the RHS budget is the kink-column total
    variation bound (C(T,x) - C(0,x) + 2 E int |dA|) plus noise
    rectification, times the discretized column width.
    """
    if f.nondiff_indicator is None:
        return KinkIdentityReport(0.0, 0.0, 0.0, 0.0, True, True)
    t_grid = surface.t_grid
    lhs_vals = map_chunked(
        _kink_lhs, n_paths, workers=workers, chunk=_surface_chunk(n_paths),
        args=(genspec, f.expression or f.name, t_grid),
    )
    lhs_vals = np.asarray(lhs_vals)
    lhs = float(lhs_vals.mean())
    lhs_budget = float(sigma_mult * lhs_vals.std(ddof=1) / np.sqrt(max(n_paths - 1, 1))) if n_paths > 1 else 0.0
    if bool(f.nondiff_indicator(0.0, genspec.x0)):
        rate = genspec.qv_rate()
        if rate is not None:
            dt0 = float(t_grid[1] - t_grid[0])
            lhs_budget += float(rate(0.0, genspec.x0)) * dt0

    # kink columns: x-grid points on the nondifferentiability set at any t
    on_kink_cols = np.zeros(surface.x_grid.size, dtype=bool)
    for i, t in enumerate(t_grid):
        on_kink_cols |= np.asarray(f.nondiff_indicator(t, surface.x_grid), dtype=bool)
    dx = float(surface.x_grid[1] - surface.x_grid[0]) if surface.x_grid.size > 1 else 0.0
    dC = np.abs(np.diff(surface.values, axis=0))
    rhs = 2.0 * dx * float(np.sum(dC[:, on_kink_cols]))

    mdv = genspec.mean_drift_variation(float(t_grid[-1])) or 0.0
    tv_bound = (surface.values[-1, on_kink_cols] - surface.values[0, on_kink_cols]) + 2.0 * mdv
    noise = sigma_mult * np.sqrt(surface.stderr[:-1, on_kink_cols] ** 2 + surface.stderr[1:, on_kink_cols] ** 2)
    rhs_budget = 2.0 * dx * float(np.sum(np.maximum(tv_bound, 0.0)) + np.sum(noise))

    passed = (lhs <= lhs_budget + 1e-15) and (rhs <= rhs_budget + 1e-15)
    return KinkIdentityReport(lhs, rhs, lhs_budget, rhs_budget, bool(passed), False)
