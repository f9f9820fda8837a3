"""Call-surface estimation and the occupation-time identity checks.

The surface C(t, x) = E[(X_t - x)_+] encodes the marginal laws; its time
increments tested against a box theta satisfy an identity whose right side
splits into a continuous-QV term, a drift term and a jump term.  All three
are computed per path so the pass test compares paired Monte Carlo samples
(3 sigma) plus an explicit, separately reported discretization budget.

run_identity makes one pass over the ensemble: each pool task generates one
cell-sized block of paths (generators.block_rows) and reads its X_t on the
t-grid once.  The identity terms and, when a function expression is given,
the kink-identity LHS are computed for the whole block at once (each task
builds the function from its expression); the blocks' X_t rows go back to
the pass, which sorts the values at each t once and reads the surface sums
from faithfully rounded prefix sums (see _surface_sums).
theta is a generators.Box, the only test function the pass runs, so the
LHS double sum over t-cells and x-midpoints telescopes exactly:
theta(t_{i+1}, x_j) = 1_I(i) 1_J(j) with I a run of consecutive cells, and
the sum over I of a midpoint's hinge increments is its hinge at the run's
end minus its hinge at the run's start.  Each path's LHS is one hinge row,
not an (n_t x n_x) array.  The reports are pure functions of the pass's
arrays, so the surface, the identity and the kink check always describe the
same paths.  The blocks depend only on n_paths and n_steps, and each row's
identity sums run over a C-contiguous row, so the identity terms are
bit-identical to a path-by-path pass at any worker count.  The surface sums
depend only on the multiset of X_t values at each t, so they are the same
bits for any worker count, block split or path order.

Conventions: d_t C increments over (t_i, t_{i+1}] pair with theta at the
right endpoint (cadlag measure); model [X]^c cell increments pair with theta
at the left endpoint (previsible evaluation).  Model QV comes from the
generator (sigma^2 dt per diffusive cell, 0 for jump cells), not realized
squared increments: the identity is in expectation and the calculus module
independently validates realized against model QV.  The model drift dA
comes from the generator too (GeneratorSpec.drift_rate): b dt, plus, for
the jump kinds, the compensator rate * E[J] dt, the expected dX of the
jumps; the jump term holds only each jump's hinge correction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _kernels
from ._parallel import map_chunked
from .functions import PathFunction, make_function
from .generators import Box, GeneratorSpec, block_rows, generate


# ---------------------------------------------------------------------------
# surface estimation


class CallSurface(NamedTuple):
    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray

    def to_csv(self) -> str:
        """One `t,x,C,stderr` line per grid cell, each number as its float
        repr.  Each t-row is converted and joined into one string, and the
        rows are joined once, so no list of per-cell lines or numbers is
        held."""
        ts, xs = (np.asarray(a, dtype=float).tolist() for a in (self.t_grid, self.x_grid))
        cs, es = (np.asarray(a, dtype=float) for a in (self.values, self.stderr))
        xs = [repr(x) for x in xs]
        rows = ["t,x,C,stderr\n"]
        for t, c_row, e_row in zip(ts, cs, es):
            t = repr(t)
            cells = zip(xs, c_row.tolist(), e_row.tolist())
            rows.append("".join([f"{t},{x},{c!r},{e!r}\n" for x, c, e in cells]))
        return "".join(rows)

    @classmethod
    def from_sums(cls, t_grid, x_grid, s, ss, n: int) -> "CallSurface":
        """Per-cell mean and standard error of (X_t - x)_+ from the sums of
        the hinges and of their squares over n paths."""
        mean = s / n
        var = np.maximum(ss / n - mean * mean, 0.0)
        stderr = np.sqrt(var / max(n - 1, 1))
        return cls(t_grid=t_grid, x_grid=x_grid, values=mean, stderr=stderr)


def convexity_defect(surface: CallSurface) -> float:
    """Most negative second difference across t-slices (>= -ulp noise).

    Means of hinge samples are convex in exact arithmetic; IEEE rounding can
    leave ulp-scale violations, so exact nonnegativity is not asserted.
    """
    d2 = surface.values[:, :-2] - 2.0 * surface.values[:, 1:-1] + surface.values[:, 2:]
    return float(d2.min()) if d2.size else 0.0


# ---------------------------------------------------------------------------
# identity machinery


def _report_dict(record, **extra) -> dict:
    """A report record's fields, `passed` written as "pass", and extra."""
    fields = record._asdict()
    if "passed" in fields:
        fields["pass"] = fields.pop("passed")
    return {**fields, **extra}


class IdentityReport(NamedTuple):
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
        return _report_dict(self, rhs=self.rhs, abs_diff=abs(self.lhs - self.rhs))


def occupation_identity_check(
    theta: Box, terms: np.ndarray, t_grid, x_grid, sigma_mult: float = 3.0
) -> IdentityReport:
    """Monte Carlo check of the theta-weighted surface-increment identity.

    terms holds one row per path, as the pass builds it: (lhs, qv, drift,
    jump, model [X]^c total, model |dA| total).  Pass when |LHS - RHS| <=
    sigma_mult * stderr(paired difference) + budget; the budget covers t- and
    x-discretization and is reported separately.  It needs two rows or more:
    the standard error is undefined for one.
    """
    n_paths = terms.shape[0]
    if n_paths < 2:
        raise ValueError(f"the occupation identity needs >= 2 paths for its standard error, got {n_paths}")
    lhs_p, qv_p, drift_p, jump_p = terms[:, 0], terms[:, 1], terms[:, 2], terms[:, 3]
    diff = lhs_p - (qv_p + drift_p + jump_p)
    stderr = float(diff.std(ddof=1) / np.sqrt(n_paths))
    lhs_stderr = float(lhs_p.std(ddof=1) / np.sqrt(n_paths))

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


def identity_budget(theta: Box, dt: float, dx: float, horizon: float, qv_total: float, drift_total: float) -> float:
    """Deterministic discretization allowance, reported next to the stderr.

    t-part: evaluation-point error of the left-sum Riemann approximations to
    the d[X]^c and dA integrals, first order in dt against the realized model
    totals; x-part: midpoint integration of the hinge-increment integrand
    (at most two slope-1 kinks per path, error dx^2/8 per kink, plus the
    smooth-curvature term); box-edge part: theta's time discontinuities at
    interior box edges can split two t-cells.
    """
    t0, t1, x_lo, x_hi = theta
    t_part = 2.0 * dt / horizon * (qv_total + drift_total)
    x_part = dx * dx * 1.0
    straddle = 0.0
    if t0 > 0.0 or t1 < horizon:
        straddle = 2.0 * (x_hi - x_lo) * np.sqrt(max(qv_total, 0.0) / horizon * dt)
    return float(t_part + x_part + straddle)


# ---------------------------------------------------------------------------
# surface monotonicity and the kink identity


class MonotonicityReport(NamedTuple):
    skipped: bool
    violations: int
    worst: float
    note: str

    def to_dict(self) -> dict:
        return _report_dict(self)


def monotonicity_check(surface: CallSurface, genspec: GeneratorSpec, sigma_mult: float = 3.0) -> MonotonicityReport:
    """Check C(t, x) + E int_0^t |dA| is nondecreasing in t at every x.

    Uses the generator's model drift variation; reports skipped when the
    model does not expose it.
    """
    a_var = genspec.mean_drift_variation(surface.t_grid)
    if a_var is None:
        return MonotonicityReport(True, 0, 0.0, "drift variation unavailable")
    curve = surface.values + a_var[:, None]
    slack = sigma_mult * np.sqrt(surface.stderr[:-1] ** 2 + surface.stderr[1:] ** 2)
    incr = np.diff(curve, axis=0)
    bad = incr < -slack
    worst = float(np.min(incr + slack)) if incr.size else 0.0
    return MonotonicityReport(False, int(np.sum(bad)), worst, f"tolerance {sigma_mult} pooled stderr")


class KinkIdentityReport(NamedTuple):
    lhs: float
    rhs: float
    lhs_budget: float
    rhs_budget: float
    passed: bool
    skipped: bool

    def to_dict(self) -> dict:
        return _report_dict(self)


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
    discretized column width.  A function with a kink set needs two paths or
    more: the LHS budget's spread is undefined for one.
    """
    if f.nondiff_indicator is None:
        return KinkIdentityReport(0.0, 0.0, 0.0, 0.0, True, True)
    t_grid = surface.t_grid
    n_paths = lhs_vals.size
    if n_paths < 2:
        raise ValueError(f"the kink identity needs >= 2 paths for its LHS budget, got {n_paths}")
    lhs = float(lhs_vals.mean())
    lhs_budget = float(sigma_mult * lhs_vals.std(ddof=1) / np.sqrt(n_paths - 1))
    rate = genspec.qv_rate()
    if rate is not None:
        # the path holds x0 until its first grid step, so every t-cell that
        # starts before that step reads x0
        t_left = t_grid[:-1]
        early = t_left < genspec.dt
        early[early] = np.asarray(f.nondiff_indicator(t_left[early], genspec.x0), dtype=bool)
        if early.any():
            lhs_budget += float(np.sum(rate(t_left[early], genspec.x0) * np.diff(t_grid)[early]))

    # kink columns: x-grid points on the nondifferentiability set at any t
    on_kink = f.nondiff_indicator(t_grid[:, None], surface.x_grid[None, :])
    on_kink_cols = np.asarray(on_kink, dtype=bool).any(axis=0)
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


def _pass_block(lo, hi, genspec: GeneratorSpec, theta: Box, t_grid, x_grid, fexpr):
    """Block task: paths lo .. hi-1, generated once as one block.

    Returns (xt, terms, kink): each path's X_t row on the t-grid, which
    the pass turns into the surface sums; one identity-terms row per path;
    and, when fexpr names a function, each path's kink-identity LHS (else
    None).  Per path, with x_j the midpoints of x_grid:

    lhs: dx sum_{j in J} (hinge_j(t_b) - hinge_j(t_a)), where x_j is in J
         when x_lo <= x_j <= x_hi and t_{i+1} is in [t0, t1] exactly when
         a <= i < b.  This is sum_j dx sum_i theta(t_{i+1}, x_j)
         (hinge_j(t_{i+1}) - hinge_j(t_i)) for the box theta = 1_I(i) 1_J(j):
         the sum over the run I telescopes
    qv:  1/2 sum_i theta(t_i, X_{t_i}) d[X]^c_i          (model increments)
    drift: sum_i Theta(t_i, X_{t_i}) dA_i                 (pre-jump state)
    jump: sum over marked jumps s <= t of int_{X_{s-}}^{X_s} (X_s-x) theta dx
    kink: sum_i 1{(t_i, X_{t_i}) on the kink set} d[X]^c_i

    The terms on the t-grid take one numpy call for all the block's rows;
    each row's sums reduce over a C-contiguous row, as a path summed alone
    does, so the bits do not depend on the block.
    """
    qv_rate, drift_rate = genspec.qv_rate(), genspec.drift_rate()
    if qv_rate is None:
        raise ValueError(f"generator {genspec.kind!r} does not expose model QV")
    t_left = t_grid[:-1]
    dt = np.diff(t_grid)
    on_kink_set = make_function(fexpr).nondiff_indicator if fexpr else None

    x_centers = 0.5 * (x_grid[:-1] + x_grid[1:])
    dx = float(x_grid[1] - x_grid[0])
    # the box's cells I = [a, b) = [first, end) and midpoints J, compared as
    # theta compares
    t0, t1, x_lo, x_hi = theta
    ends = t_grid[1:]
    run = np.flatnonzero((ends >= t0) & (ends <= t1))
    first, end = int(run[0]), int(run[-1]) + 1
    centers = x_centers[(x_centers >= x_lo) & (x_centers <= x_hi)]
    times = genspec.grid()
    # X_t = values[i] on [t_i, t_{i+1}), so X_t is read from the column of the
    # last grid time <= t
    cols = np.searchsorted(times, t_grid, side="right") - 1
    ens = generate(genspec, hi - lo, lo)
    # take gathers X_t into C-contiguous rows; values[:, cols] would come
    # back in Fortran order, and each row sum below would need a copy
    xt = np.take(ens.values, cols, axis=1)
    terms = np.empty((len(ens), 6))
    lhs = np.maximum(xt[:, end, None] - centers, 0.0)
    lhs -= np.maximum(xt[:, first, None] - centers, 0.0)
    terms[:, 0] = _row_sums(lhs) * dx
    x_left = xt[:, :-1]
    # a rate may return a scalar; broadcast both rates' cells to the block
    qv_cells = np.broadcast_to(np.asarray(qv_rate(t_left, x_left), dtype=float) * dt, x_left.shape)
    drift = np.broadcast_to(np.asarray(drift_rate(t_left, x_left), dtype=float) * dt, x_left.shape)
    terms[:, 1] = 0.5 * _row_sums(theta(t_left, x_left) * qv_cells)
    # drift pairs with the pre-jump state: at a marked jump time the inner
    # integral's upper limit is the left limit
    terms[:, 2] = _row_sums(theta.integral_to(t_left, x_left) * drift)
    terms[:, 3] = 0.0
    for r, k in zip(*np.divmod(np.flatnonzero(ens.marks), times.size)):
        before, after = float(ens.values[r, max(k - 1, 0)]), float(ens.values[r, k])
        terms[r, 3] += theta.hinge_integral(float(times[k]), before, after, after)
    terms[:, 4] = _row_sums(qv_cells)
    terms[:, 5] = _row_sums(np.abs(drift))
    kink = None
    if on_kink_set is not None:
        on_kink = np.asarray(on_kink_set(t_left, x_left), dtype=bool)
        kink = np.array([np.add.reduce(q[on]) for q, on in zip(qv_cells, on_kink)])
    return xt, terms, kink


def _surface_sums(xts, x_grid):
    """(s, ss): the sums over all paths of the hinges (X_t - x)_+ on the
    surface grid and of their squares, (n_t+1, n_x+1) each.

    xts: arrays of X_t rows, (paths, n_t+1) each, one row per path in all.
    At each t the P values are sorted once, and k_j = #{X_t > x_j} comes
    from one searchsorted.  With A_k and B_k the sums of the k largest
    values and of their squares, the hinge sums are exactly

        s_j = A_k - k x_j        ss_j = B_k - 2 x_j A_k + k x_j^2

    and A_k, B_k for every k are the faithfully rounded prefix sums of
    _kernels.row_sums over the values in descending order.  So the work is
    O(P log P) per t, not O(P n_x), and the sums depend only on the
    multiset of X_t values at each t: the same bits for any chunking,
    worker count or path order.

    With u = 2^-53 and S, SS the exact sums (in the normal range),
    |s - S| <= 4u (|A_k| + k |x_j|) and |ss - SS| <= 6u (B_k + 2 |x_j A_k|
    + k x_j^2): s takes one faithful sum and two roundings, and ss rounds
    each square, takes one faithful sum and rounds five times.  A faithful
    A_k is not always the nearest double, so where the exact A_k clears
    k x_j by less than an ulp, fl(k x_j) can round above it and s come out
    below 0.  s and ss are clamped at 0.0, which only moves them toward the
    exact sums, nonnegative as they are.  Where no path exceeds x_j, k = 0
    and both are exactly 0.0.  The t-rows go a slab of about
    _kernels.CELLS values at a time.
    """
    n = sum(len(xt) for xt in xts)
    n_t1 = xts[0].shape[1]
    s = np.empty((n_t1, x_grid.size))
    ss = np.empty_like(s)
    step = max(1, _kernels.CELLS // n)
    buf = np.empty((step, n))
    # column k holds the running sum of the k largest values; column 0 is
    # the empty sum
    top = np.zeros((step, n + 1))
    top2 = np.zeros_like(top)
    for a in range(0, n_t1, step):
        b = min(a + step, n_t1)
        y = buf[: b - a]
        r = 0
        for xt in xts:
            y[:, r : r + len(xt)] = xt[:, a:b].T
            r += len(xt)
        y.sort(axis=1)
        k = n - np.stack([np.searchsorted(row, x_grid, side="right") for row in y])
        desc = y[:, ::-1]
        _kernels.row_sums(lambda c, d: desc[c:d], desc.shape, out=top[: b - a, 1:])
        _kernels.row_sums(lambda c, d: np.square(desc[c:d]), desc.shape, out=top2[: b - a, 1:])
        a1 = np.take_along_axis(top[: b - a], k, axis=1)
        a2 = np.take_along_axis(top2[: b - a], k, axis=1)
        s[a:b] = np.maximum(a1 - k * x_grid, 0.0)
        ss[a:b] = np.maximum(a2 - (2.0 * x_grid) * a1 + k * (x_grid * x_grid), 0.0)
    return s, ss


def _one_pass(genspec: GeneratorSpec, theta: Box, t_grid, x_grid, n_paths: int, fexpr=None, workers=1):
    """(s, ss, terms, kink) over all n_paths: the surface sums from every
    path's X_t rows, the per-path rows stacked in path order.

    This process holds the P x (n_t+1) float64 values of X_t the blocks
    return, plus the surface sums' slabs of about _kernels.CELLS values; the
    rows are read from the blocks' own arrays, never copied into one.
    """
    parts = map_chunked(
        _pass_block, n_paths, block_rows(genspec.n_steps), workers, (genspec, theta, t_grid, x_grid, fexpr)
    )
    s, ss = _surface_sums([p[0] for p in parts], x_grid)
    terms = np.concatenate([p[1] for p in parts])
    kink = np.concatenate([p[2] for p in parts]) if fexpr else None
    return s, ss, terms, kink


class IdentityRun(NamedTuple):
    """The reports of one pass; kink is None when no function was given."""

    surface: CallSurface
    identity: IdentityReport
    kink: KinkIdentityReport | None


def run_identity(
    genspec: GeneratorSpec,
    theta: Box,
    n_paths: int,
    n_t: int = 256,
    n_x: int = 64,
    function: str | None = None,
    workers: int = 1,
    sigma_mult: float = 3.0,
) -> IdentityRun:
    """Surface, occupation identity and (given a function) kink identity
    from one pass.

    The surface sits on n_t + 1 times over [0, horizon] and n_x + 1 points
    spanning theta's x-range; the identity integrates over the n_x cells of
    that x-grid.  It needs n_paths >= 2: the identity's standard error, and
    so its pass rule, is undefined for one path.  function is a
    functions.make_function expression, which each pool task builds again
    for its kink LHS.
    """
    f = make_function(function) if function else None
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for the identity's standard error, got {n_paths}")
    t_grid = np.linspace(0.0, genspec.horizon, n_t + 1)
    if not ((t_grid[1:] >= theta.t0) & (t_grid[1:] <= theta.t1)).any():
        raise ValueError(f"theta's [t0, t1] = [{theta.t0}, {theta.t1}] holds no right end of the {n_t} t-cells")
    x_grid = np.linspace(theta.x_lo, theta.x_hi, n_x + 1)
    s, ss, terms, kink_lhs = _one_pass(genspec, theta, t_grid, x_grid, n_paths, function, workers)
    surface = CallSurface.from_sums(t_grid, x_grid, s, ss, n_paths)
    identity = occupation_identity_check(theta, terms, t_grid, x_grid, sigma_mult)
    kink = None if f is None else kink_identity_check(genspec, f, surface, kink_lhs, sigma_mult)
    return IdentityRun(surface=surface, identity=identity, kink=kink)
