"""Call-surface estimation and the occupation-time identity checks.

The surface C(t, x) = E[(X_t - x)_+] encodes the marginal laws; its time
increments tested against bounded theta satisfy an identity whose right side
splits into a continuous-QV term, a drift term and a jump term.  All three
are computed per path so the pass test compares paired Monte Carlo samples
(3 sigma) plus an explicit, separately reported discretization budget.

run_identity makes one pass over the ensemble: each chunk task generates its
paths a block at a time and reads the block's X_t on the t-grid once.  The
identity terms and, when a function is given, the kink-identity LHS are
computed for the whole block at once; the hinges are added into the surface
sums a row at a time (see _pass_chunk for why).  The reports are pure
functions of the pass's arrays, so the surface, the identity and the kink
check always describe the same paths.  The chunking depends only on n_paths,
rows are reduced in path order and each row's sums run over a C-contiguous
row, so the results are bit-identical to a path-by-path pass at any worker
count.

Conventions: d_t C increments over (t_i, t_{i+1}] pair with theta at the
right endpoint (cadlag measure); model [X]^c cell increments pair with theta
at the left endpoint (previsible evaluation).  Model QV comes from the
generator (sigma^2 dt per diffusive cell, 0 for jump cells), not realized
squared increments: the identity is in expectation and the calculus module
independently validates realized against model QV.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import map_chunked
from .functions import PathFunction, make_function
from .generators import GeneratorSpec, iter_blocks, make_coefficient, make_jump_law


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
        """One `t,x,C,stderr` line per grid cell, each number as its float repr."""
        ts, xs, cs, es = (np.asarray(a, dtype=float).tolist()
                          for a in (self.t_grid, self.x_grid, self.values, self.stderr))
        xs = [repr(x) for x in xs]
        lines = ["t,x,C,stderr"]
        for t, c_row, e_row in zip(ts, cs, es):
            t = repr(t)
            lines += [f"{t},{x},{c!r},{e!r}" for x, c, e in zip(xs, c_row, e_row)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_sums(cls, t_grid, x_grid, s, ss, n: int) -> "CallSurface":
        """Per-cell mean and standard error of (X_t - x)_+ from the sums of
        the hinges and of their squares over n paths."""
        mean = s / n
        var = np.maximum(ss / n - mean * mean, 0.0)
        stderr = np.sqrt(var / max(n - 1, 1))
        return cls(t_grid=t_grid, x_grid=x_grid, values=mean, stderr=stderr, n_paths=n)


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


def _gated(theta: TestFunction, t, x):
    """theta clipped to its declared support box: the box is authoritative,
    so values a test function reports outside it never enter the sums."""
    t0, t1, lo, hi = theta.box
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    inside = (t >= t0) & (t <= t1) & (x >= lo) & (x <= hi)
    return np.where(inside, np.asarray(theta(t, x), dtype=float), 0.0)


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
    theta: TestFunction, terms: np.ndarray, t_grid, x_grid, sigma_mult: float = 3.0
) -> IdentityReport:
    """Monte Carlo check of the theta-weighted surface-increment identity.

    terms holds one row per path, as the pass builds it: (lhs, qv, drift,
    jump, model [X]^c total, model |dA| total).  Pass when |LHS - RHS| <=
    sigma_mult * stderr(paired difference) + budget; the budget covers t- and
    x-discretization and is reported separately.
    """
    n_paths = terms.shape[0]
    lhs_p, qv_p, drift_p, jump_p = terms[:, 0], terms[:, 1], terms[:, 2], terms[:, 3]
    diff = lhs_p - (qv_p + drift_p + jump_p)
    stderr = float(diff.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else float("inf")
    lhs_stderr = float(lhs_p.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else float("inf")

    horizon = float(t_grid[-1])
    budget = identity_budget(
        theta,
        dt=horizon / (t_grid.size - 1),
        dx=float(x_grid[1] - x_grid[0]),
        horizon=horizon,
        qv_total=float(terms[:, 4].mean()),
        drift_total=float(terms[:, 5].mean()),
    )
    return IdentityReport(
        lhs=float(lhs_p.mean()),
        rhs_qv_term=float(qv_p.mean()),
        rhs_drift_term=float(drift_p.mean()),
        rhs_jump_term=float(jump_p.mean()),
        stderr=stderr,
        lhs_stderr=lhs_stderr,
        budget=budget,
        passed=bool(abs(float(diff.mean())) <= sigma_mult * stderr + budget),
        n_paths=n_paths,
    )


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


def kink_identity_check(
    genspec: GeneratorSpec,
    f: PathFunction,
    surface: CallSurface,
    lhs_vals,
    sigma_mult: float = 3.0,
) -> KinkIdentityReport:
    """Both sides of the nondifferentiability-set identity.

    LHS: ensemble mean of lhs_vals, each path's 1{(t, X_t) on the kink set}
    d[X]^c (model cells), from the pass that built the surface.
    RHS: 2 * sum over kink columns of dx * sum_t |dC|.  For continuous laws
    both are statistically zero up to declared discretization allowances:
    the LHS budget covers kink touches that are structural rather than
    generic (x0 exactly on the kink makes every t-cell that starts before
    the path's first grid step fire on every path, worth qv-rate * dt each);
    the RHS budget is the kink-column total variation bound
    (C(T,x) - C(0,x) + 2 E int |dA|) plus noise rectification, times the
    discretized column width.
    """
    if f.nondiff_indicator is None:
        return KinkIdentityReport(0.0, 0.0, 0.0, 0.0, True, True)
    t_grid = surface.t_grid
    n_paths = lhs_vals.size
    lhs = float(lhs_vals.mean())
    lhs_budget = float(sigma_mult * lhs_vals.std(ddof=1) / np.sqrt(max(n_paths - 1, 1))) if n_paths > 1 else 0.0
    rate = genspec.qv_rate()
    if rate is not None:
        # the path holds x0 until its first grid step, so every t-cell that
        # starts before that step reads x0
        t_left = t_grid[:-1]
        early = t_left < genspec.grid()[1]
        early[early] = np.asarray(f.nondiff_indicator(t_left[early], genspec.x0), dtype=bool)
        if early.any():
            lhs_budget += float(np.sum(rate(t_left[early], genspec.x0) * np.diff(t_grid)[early]))

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


# ---------------------------------------------------------------------------
# the one pass


def _row_sums(a):
    """Each row's sum, reduced over a C-contiguous row as a path summed on its
    own is: the pairwise summation order, and so the bits, follow the layout."""
    return np.ascontiguousarray(a).sum(axis=1)


def _pass_chunk(lo, hi, genspec: GeneratorSpec, theta: TestFunction, t_grid, x_grid, fexpr):
    """Chunk task: paths lo .. hi-1, each generated once.

    Returns [(s, ss, terms, kink)]: the chunk's sums of the hinges (X_t - x)_+
    over the surface grid and of their squares, added in path order; one
    identity-terms row per path; and, when fexpr names a function, each
    path's kink-identity LHS (else None).  Per path, with x_j the midpoints
    of x_grid:

    lhs: sum_j dx sum_i theta(t_{i+1}, x_j) (hinge(t_{i+1}) - hinge(t_i))
    qv:  1/2 sum_i theta(t_i, X_{t_i}) d[X]^c_i          (model increments)
    drift: sum_i Theta(t_i, X_{t_i}) dA_i                 (pre-jump state)
    jump: sum over marked jumps s <= t of int_{X_{s-}}^{X_s} (X_s-x) theta dx
    kink: sum_i 1{(t_i, X_{t_i}) on the kink set} d[X]^c_i

    The terms on the t-grid take one numpy call per block for all its rows;
    each row's sums reduce over a C-contiguous row, as a path summed alone
    does, so the bits do not depend on the block.  The hinges stay per row:
    a row's hinge arrays are (n_t+1) x (n_x+1), so the work is bound by
    element count and cache size, and stacking a block's rows would only
    multiply the memory.  They are written into buffers held for the chunk.
    """
    qv_rate = genspec.qv_rate()
    if qv_rate is None:
        raise ValueError(f"generator {genspec.kind!r} does not expose model QV")
    t_left = t_grid[:-1]
    dt = np.diff(t_grid)
    b = None
    if genspec.kind in ("euler_sde", "jump_diffusion"):
        b = make_coefficient(genspec.b)
    elif genspec.kind == "compound_poisson":
        drift_cells = make_jump_law(genspec.jump_law).mean * genspec.jump_rate * dt
    else:
        drift_cells = np.zeros_like(dt)
    on_kink_set = make_function(fexpr).nondiff_indicator if fexpr else None

    x_centers = 0.5 * (x_grid[:-1] + x_grid[1:])
    dx = float(x_grid[1] - x_grid[0])
    theta_right = _gated(theta, t_grid[1:][:, None], x_centers[None, :])
    times = genspec.grid()
    # X_t as SamplePath.eval_many reads it, and the grid times jumps count at
    cols = np.searchsorted(times, t_grid, side="right") - 1
    in_range = times <= t_grid[-1]
    s = np.zeros((t_grid.size, x_grid.size))
    ss = np.zeros_like(s)
    h = np.empty_like(s)
    hc = np.empty((t_grid.size, x_centers.size))
    dh = np.empty((dt.size, x_centers.size))
    terms = np.empty((hi - lo, 6))
    kink = np.empty(hi - lo) if on_kink_set else None
    r0 = 0
    for ens in iter_blocks(genspec, lo, hi):
        # X_t for the block's rows; np.take returns them C-contiguous, where
        # values[:, cols] comes back in Fortran order and each row sum below
        # would need a copy
        xt = np.take(ens.values, cols, axis=1)
        rows = slice(r0, r0 + xt.shape[0])
        for r, row in enumerate(xt, start=r0):
            np.subtract(row[:, None], x_grid, out=h)
            np.maximum(h, 0.0, out=h)
            s += h
            h *= h  # now the squares
            ss += h
            np.subtract(row[:, None], x_centers, out=hc)
            np.maximum(hc, 0.0, out=hc)
            np.subtract(hc[1:], hc[:-1], out=dh)
            dh *= theta_right
            terms[r, 0] = np.sum(dh) * dx

        x_left = xt[:, :-1]
        # a coefficient may return a scalar, and drift cells without b are one
        # row for all paths; broadcast both to the block
        qv_cells = np.broadcast_to(np.asarray(qv_rate(t_left, x_left), dtype=float) * dt, x_left.shape)
        drift = drift_cells if b is None else np.asarray(b(t_left, x_left), dtype=float) * dt
        drift = np.broadcast_to(drift, x_left.shape)
        terms[rows, 1] = 0.5 * _row_sums(_gated(theta, t_left, x_left) * qv_cells)
        # drift pairs with the pre-jump state: at a marked jump time the
        # inner integral's upper limit is the left limit
        terms[rows, 2] = _row_sums(theta.integral_to(t_left, x_left) * drift)
        terms[rows, 3] = 0.0
        for r, k in zip(*np.divmod(np.flatnonzero(ens.marks & in_range), times.size)):
            before, after = float(ens.values[r, max(k - 1, 0)]), float(ens.values[r, k])
            terms[r0 + r, 3] += theta.hinge_integral(float(times[k]), before, after, after)
        terms[rows, 4] = _row_sums(qv_cells)
        terms[rows, 5] = _row_sums(np.abs(drift))
        if on_kink_set is not None:
            on_kink = np.asarray(on_kink_set(t_left, x_left), dtype=bool)
            for r, (q, on) in enumerate(zip(qv_cells, on_kink), start=r0):
                kink[r] = np.sum(q[on])
        r0 = rows.stop
    return [(s, ss, terms, kink)]


def _one_pass(genspec: GeneratorSpec, theta: TestFunction, t_grid, x_grid, n_paths: int, fexpr=None, workers=1):
    """(s, ss, terms, kink) over all n_paths: the chunk sums added in chunk
    order, the per-path rows stacked in path order."""
    parts = map_chunked(
        _pass_chunk, n_paths, workers=workers, chunk=_surface_chunk(n_paths),
        args=(genspec, theta, t_grid, x_grid, fexpr),
    )
    s = np.zeros((t_grid.size, x_grid.size))
    ss = np.zeros_like(s)
    for part_s, part_ss, _, _ in parts:
        s += part_s
        ss += part_ss
    terms = np.concatenate([p[2] for p in parts])
    kink = np.concatenate([p[3] for p in parts]) if fexpr else None
    return s, ss, terms, kink


@dataclass(frozen=True)
class IdentityRun:
    """The reports of one pass; kink is None when no function was given."""

    surface: CallSurface
    identity: IdentityReport
    kink: KinkIdentityReport | None


def run_identity(
    genspec: GeneratorSpec,
    theta,
    n_paths: int,
    n_t: int = 256,
    n_x: int = 64,
    f: PathFunction | None = None,
    workers: int = 1,
    sigma_mult: float = 3.0,
) -> IdentityRun:
    """Surface, occupation identity and (given f) kink identity from one pass.

    The surface sits on n_t + 1 times over [0, horizon] and n_x + 1 points
    spanning theta's x-range; the identity integrates over the n_x cells of
    that x-grid.  It needs n_paths >= 2: the identity's standard error, and
    so its pass rule, is undefined for one path.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for the identity's standard error, got {n_paths}")
    theta = make_theta(theta)
    t_grid = np.linspace(0.0, genspec.horizon, n_t + 1)
    x_grid = np.linspace(theta.box[2], theta.box[3], n_x + 1)
    fexpr = (f.expression or f.name) if f is not None and f.nondiff_indicator is not None else None
    s, ss, terms, kink_lhs = _one_pass(genspec, theta, t_grid, x_grid, n_paths, fexpr, workers)
    surface = CallSurface.from_sums(t_grid, x_grid, s, ss, n_paths)
    identity = occupation_identity_check(theta, terms, t_grid, x_grid, sigma_mult)
    kink = None if f is None else kink_identity_check(genspec, f, surface, kink_lhs, sigma_mult)
    return IdentityRun(surface=surface, identity=identity, kink=kink)
