"""Ito-sum decomposition of f(t, X_t) and the zero-continuous-QV verdict.

The decomposition f(t, X_t) = sum_k D_x f(tau_{k-1}, X-state) dX + V runs
on a block of paths at once.  The integrand state is the value itself, or
the left limit at a marked jump; eta is f.dx_exact on the (rows x cells)
state block, the Ito sum is one row-wise kernel pass (calculus.ito_rows) and
V = f - integral.  The terms and f are formed a slab of columns at a time,
so V is the only full-size array a block adds.  zcqv_ladder then measures
the included-cell squared-increment statistic of V at every refinement
level, one kernel pass per level, and summarize_zcqv turns the decay into a
pass/fail verdict.  decompose() is a one-row call of the same code, and the
named suites run it over an ensemble a block at a time, with a
deterministic worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import calculus
from ._kernels import SLAB
from ._parallel import map_chunked
from .errors import ConfigurationError, NonFiniteError
from .functions import PathFunction, dx_limsup, make_function
from .generators import GeneratorSpec, iter_blocks
from .partitions import ExclusionSet, Partition, RefinementLadder
from .paths import PathEnsemble, SamplePath


@dataclass(frozen=True)
class DecompositionResult:
    f_path: SamplePath
    integral_path: SamplePath
    v_path: SamplePath
    exclusion_times: np.ndarray
    assumptions: str
    kink_qv_mass: float

    def reconstruction_error(self) -> float:
        resid = self.f_path.values - (self.integral_path.values + self.v_path.values)
        return float(np.max(np.abs(resid)))


def _integrand_states(values, marks, times, left_cuts) -> np.ndarray:
    """State fed to D_x f at each left cut time, for every row: the pre-jump value.

    At generator-marked jump times the left limit is used; elsewhere the
    cadlag value itself, since between marks the underlying dynamics are
    continuous and the grid's piecewise-constant 'left limit' would lag the
    true state by one cell.
    """
    at = np.searchsorted(times, left_cuts, side="right") - 1
    before = np.maximum(np.searchsorted(times, left_cuts, side="left") - 1, 0)
    marked = marks[:, at] & (times[at] == left_cuts)
    return np.where(marked, values[:, before], values[:, at])


def _eta(f: PathFunction, t: np.ndarray, states: np.ndarray) -> np.ndarray:
    if f.dx_exact is not None:
        return np.asarray(f.dx_exact(t, states), dtype=float)
    return np.asarray(
        [[dx_limsup(f, float(tk), float(sk)).value for tk, sk in zip(t, row)] for row in states]
    )


def _ito_block(f: PathFunction, values, marks, times, cuts) -> tuple:
    """(values at the cuts, left-point Ito running sums) for every row."""
    _, at = calculus.grid_index(times, cuts)
    xv = values[:, at]
    eta = lambda a, b: _eta(f, cuts[a:b], _integrand_states(values, marks, times, cuts[a:b]))
    return xv, calculus.ito_rows(xv, eta)


def _kink_mass(f: PathFunction, cuts, xv) -> np.ndarray:
    """Per row: sum of (dX)^2 over the cells whose right end is on f's kink set."""
    if f.nondiff_indicator is None:
        return np.full(len(xv), np.nan)
    rows, k = np.nonzero(np.asarray(f.nondiff_indicator(cuts[1:], xv[:, 1:]), dtype=bool))
    dxsq = (xv[rows, k + 1] - xv[rows, k]) ** 2
    bounds = np.searchsorted(rows, np.arange(len(xv) + 1))
    return np.array([float(np.sum(dxsq[a:b])) for a, b in zip(bounds[:-1], bounds[1:])])


def decompose_block(f: PathFunction, ens: PathEnsemble) -> tuple:
    """(V, kink masses) for every path of the block, on the path grid.

    V is (n, n_grid); row r equals decompose(f, ens[r], grid).v_path.values
    bit for bit.
    """
    times = ens.times
    _, v = _ito_block(f, ens.values, ens.marks, times, times)
    for a in range(0, times.size, SLAB):
        b = min(a + SLAB, times.size)
        np.subtract(f(times[a:b], ens.values[:, a:b]), v[:, a:b], out=v[:, a:b])
    return v, _kink_mass(f, times, ens.values)


def decompose(f: PathFunction, x: SamplePath, partition: Partition) -> DecompositionResult:
    """Split f(t, X_t) into the left-point Ito sum against X plus V: a
    one-row call of the block decomposition on any partition."""
    if partition.cut_times[-1] < x.horizon:
        raise ValueError("partition must cover the path horizon")
    cuts = np.minimum(partition.cut_times, x.horizon)
    cuts = cuts[np.concatenate([[True], np.diff(cuts) > 0])]

    xv, integral = _ito_block(f, x.values[None], x.jump_marks[None], x.times, cuts)
    xv, integral = xv[0], integral[0]
    fv = np.asarray(f(cuts, xv), dtype=float)
    v = fv - integral

    s_times = x.jump_times(np.inf)
    if f.time_jumps:
        s_times = np.union1d(s_times, [tj for tj, _ in f.time_jumps])
    marks = np.isin(cuts, s_times)

    if f.time_independent and f.lipschitz_bound is not None:
        assumptions = "certified: locally Lipschitz, time independent"
    elif f.dx_left is not None and f.dx_right is not None and f.dt_measure is not None:
        assumptions = "certified: one-sided derivatives with x-integrable time variation"
    else:
        assumptions = "assumed: differentiability conditions not certified by metadata"

    mk = lambda vals: SamplePath(times=cuts, values=vals, jump_marks=marks)
    return DecompositionResult(
        f_path=mk(fv),
        integral_path=mk(integral),
        v_path=mk(v),
        exclusion_times=s_times,
        assumptions=assumptions,
        kink_qv_mass=float(_kink_mass(f, cuts, xv[None])[0]),
    )


# ---------------------------------------------------------------------------
# z.c.q.v. verdict


@dataclass(frozen=True)
class ZcqvVerdict:
    levels: tuple
    meshes: tuple
    median_stat: tuple
    p90_stat: tuple
    slope: float | None
    pass_fraction: float
    passed: bool | None
    status: str

    def to_dict(self) -> dict:
        return {
            "levels": [
                {"level": lv, "mesh": m, "median_stat": md, "p90_stat": p9}
                for lv, m, md, p9 in zip(self.levels, self.meshes, self.median_stat, self.p90_stat)
            ],
            "slope": self.slope,
            "pass_fraction": self.pass_fraction,
            "pass": self.passed,
            "status": self.status,
        }


def summarize_zcqv(stats: np.ndarray, levels, meshes, pass_fraction: float) -> ZcqvVerdict:
    """stats: (n_paths, n_levels) statistic values.

    Pass when the finest-level median is at most pass_fraction times the
    coarsest-level median; the comparison is non-strict so grid-exact zero
    statistics (pure-jump processes with their jumps excluded) pass.  The
    decay slope of log median vs log mesh is fitted when all medians are
    positive.
    """
    stats = np.asarray(stats, dtype=float)
    if stats.ndim != 2 or len(stats) == 0:
        raise ValueError("expected (n_paths, n_levels) statistics with n_paths >= 1")
    med = calculus.path_median(stats)[0]
    p90 = calculus.path_percentile(stats, 90)[0]
    n_levels = stats.shape[1]
    if n_levels < 3:
        passed, status = None, "inconclusive: fewer than 3 levels"
    else:
        passed = bool(med[-1] <= pass_fraction * med[0])
        status = "ok"
    slope = None
    if n_levels >= 2 and np.all(med > 0):
        coef = np.polyfit(np.log(np.asarray(meshes, dtype=float)), np.log(med), 1)
        slope = float(coef[0])
    return ZcqvVerdict(
        levels=tuple(levels),
        meshes=tuple(float(m) for m in meshes),
        median_stat=tuple(float(v) for v in med),
        p90_stat=tuple(float(v) for v in p90),
        slope=slope,
        pass_fraction=pass_fraction,
        passed=passed,
        status=status,
    )


def verify_zcqv(
    v_paths,
    ladder: RefinementLadder,
    exclusions,
    t: float,
    pass_fraction: float = 0.1,
    levels=None,
) -> ZcqvVerdict:
    """Per-level included-cell statistic of V across the ensemble.

    v_paths: one SamplePath or a sequence; exclusions: one ExclusionSet,
    a sequence aligned with v_paths, or None for the empty set.
    """
    if isinstance(v_paths, SamplePath):
        v_paths = [v_paths]
    n = len(v_paths)
    if exclusions is None:
        exclusions = [ExclusionSet.empty()] * n
    elif isinstance(exclusions, ExclusionSet):
        exclusions = [exclusions] * n
    elif len(exclusions) != n:
        raise ValueError(f"exclusions holds {len(exclusions)} sets for {n} paths")
    stats = np.empty((n, len(ladder)))
    for i, (vp, s) in enumerate(zip(v_paths, exclusions)):
        for j, part in enumerate(ladder):
            stats[i, j] = calculus.zcqv_statistic(vp, part, s, t)
    if levels is None:
        levels = tuple(range(len(ladder)))
    return summarize_zcqv(stats, levels, ladder.meshes, pass_fraction)


# ---------------------------------------------------------------------------
# named experiment suites


@dataclass(frozen=True)
class SuiteConfig:
    generator: GeneratorSpec
    function: str = "abs"
    l_min: int = 6
    l_max: int = 12
    n_paths: int = 200
    pass_fraction: float = 0.1
    jump_threshold: float = float("inf")
    workers: int = 1


@dataclass(frozen=True)
class SuiteResult:
    name: str
    verdict: ZcqvVerdict
    expected_pass: bool
    details: dict

    @property
    def ok(self) -> bool:
        return self.verdict.passed == self.expected_pass

    def to_dict(self) -> dict:
        out = {
            "experiment": self.name,
            "expected_pass": self.expected_pass,
            "ok": self.ok,
            "verdict": self.verdict.to_dict(),
        }
        out.update(self.details)
        return out


def _suite_levels(cfg: SuiteConfig):
    return tuple(range(cfg.l_min, cfg.l_max + 1))


def _blocks(spec: GeneratorSpec, lo: int, hi: int):
    """(index of the first path, block) over paths lo .. hi-1."""
    for ens in iter_blocks(spec, lo, hi):
        yield lo, ens
        lo += len(ens)


def _require_finite(block: np.ndarray, what: str, spec: GeneratorSpec, start: int) -> None:
    """Name the seed and index of the first path whose row is not finite,
    so make_path(spec, index) replays it."""
    bad = ~np.isfinite(block).all(axis=1)
    if bad.any():
        path = start + int(np.argmax(bad))
        raise NonFiniteError(f"non-finite {what} at (seed={spec.seed}, path={path})")


def _grid_exclusions(sel: np.ndarray, times: np.ndarray, common=()) -> tuple:
    """S as (rows, times) pairs: each row's selected grid times, then the
    common times on every row."""
    rows, grid = np.nonzero(sel)
    common = np.asarray(common, dtype=np.float64)
    every = np.repeat(np.arange(len(sel)), common.size)
    return np.concatenate([rows, every]), np.concatenate([times[grid], np.tile(common, len(sel))])


def _ladder(spec: GeneratorSpec, cfg: SuiteConfig) -> RefinementLadder:
    return RefinementLadder.dyadic(spec.horizon, cfg.l_min, cfg.l_max, grid_times=spec.grid())


def _decomposition_stats(lo, hi, genspec: GeneratorSpec, fexpr: str, cfg: SuiteConfig, extra_s_times):
    """Block task: generate, decompose on the path grid, statistic per level.

    S holds each path's marked jumps, the function's time jumps and the
    suite's extra times.
    """
    f = make_function(fexpr)
    ladder = _ladder(genspec, cfg)
    common = np.concatenate([[tj for tj, _ in f.time_jumps], extra_s_times])
    out = []
    for start, ens in _blocks(genspec, lo, hi):
        v, kink = decompose_block(f, ens)
        _require_finite(v, "V", genspec, start)
        s_rows, s_times = _grid_exclusions(ens.marks, ens.times, common)
        stats = calculus.zcqv_ladder(v, ens.times, ladder, ens.horizon, s_rows, s_times)
        _require_finite(stats, "statistic", genspec, start)
        out.extend(zip(map(tuple, stats.tolist()), kink.tolist(), v[:, -1].tolist()))
    return out


def _raw_zcqv_stats(lo, hi, genspec: GeneratorSpec, cfg: SuiteConfig):
    """Negative control task: the statistic on X itself, S = its jumps."""
    ladder = _ladder(genspec, cfg)
    out = []
    for start, ens in _blocks(genspec, lo, hi):
        sel = calculus.jump_grid(ens, cfg.jump_threshold)
        s_rows, s_times = _grid_exclusions(sel, ens.times)
        stats = calculus.zcqv_ladder(ens.values, ens.times, ladder, ens.horizon, s_rows, s_times)
        _require_finite(stats, "statistic", genspec, start)
        out.extend(map(tuple, stats.tolist()))
    return out


def _cross_stats(lo, hi, zspec: GeneratorSpec, yspec: GeneratorSpec, cfg: SuiteConfig):
    """Included-cell |dZ dY| per level, S = the jumps of Z and Y; plus the S-empty column."""
    ladder = _ladder(zspec, cfg)
    out = []
    for (start, z), (_, y) in zip(_blocks(zspec, lo, hi), _blocks(yspec, lo, hi)):
        sel = calculus.jump_grid(z, cfg.jump_threshold) | calculus.jump_grid(y, cfg.jump_threshold)
        s_rows, s_times = _grid_exclusions(sel, z.times)
        with_s = calculus.zcqv_ladder(
            z.values, z.times, ladder, z.horizon, s_rows, s_times, y=y.values, absolute=True
        )
        no_s = calculus.zcqv_ladder(z.values, z.times, ladder, z.horizon, y=y.values, absolute=True)
        # with_s adds a subset of the nonnegative terms that no_s adds
        _require_finite(no_s, "statistic", zspec, start)
        out.extend(zip(map(tuple, with_s.tolist()), map(tuple, no_s.tolist())))
    return out


def _sum_zcqv_stats(lo, hi, spec1: GeneratorSpec, spec2: GeneratorSpec, cfg: SuiteConfig):
    """Statistic for Z1 + Z2 with S = the union of both jump sets."""
    ladder = _ladder(spec1, cfg)
    out = []
    for (start, z1), (_, z2) in zip(_blocks(spec1, lo, hi), _blocks(spec2, lo, hi)):
        sel = calculus.jump_grid(z1, cfg.jump_threshold) | calculus.jump_grid(z2, cfg.jump_threshold)
        s_rows, s_times = _grid_exclusions(sel, z1.times)
        stats = calculus.zcqv_ladder(z1.values + z2.values, z1.times, ladder, z1.horizon, s_rows, s_times)
        _require_finite(stats, "statistic", spec1, start)
        out.extend(map(tuple, stats.tolist()))
    return out


def _brownian_spec(cfg: SuiteConfig) -> GeneratorSpec:
    return replace(cfg.generator, kind="brownian")


def _jump_diffusion_spec(cfg: SuiteConfig) -> GeneratorSpec:
    spec = cfg.generator
    rate = spec.jump_rate if spec.jump_rate > 0 else 3.0
    return replace(spec, kind="jump_diffusion", jump_rate=rate)


def _compound_poisson_spec(cfg: SuiteConfig, seed_offset: int = 0) -> GeneratorSpec:
    spec = cfg.generator
    rate = spec.jump_rate if spec.jump_rate > 0 else 3.0
    return replace(spec, kind="compound_poisson", jump_rate=rate, seed=spec.seed + seed_offset)


def _decomposition_suite(
    name: str, cfg: SuiteConfig, genspec: GeneratorSpec, fexpr: str, extra
) -> SuiteResult:
    levels = _suite_levels(cfg)
    rows = map_chunked(
        _decomposition_stats, cfg.n_paths, cfg.workers, args=(genspec, fexpr, cfg, extra)
    )
    stats = np.asarray([r[0] for r in rows])
    verdict = summarize_zcqv(stats, levels, _meshes(genspec, levels), cfg.pass_fraction)
    kink = [r[1] for r in rows]
    details = {
        "generator": genspec.kind,
        "function": fexpr,
        "median_kink_qv_mass": float(calculus.path_median(np.asarray(kink))[0]),
        "mean_final_v": float(np.mean([r[2] for r in rows])),
    }
    return SuiteResult(name=name, verdict=verdict, expected_pass=True, details=details)


def run_decompose(cfg: SuiteConfig) -> SuiteResult:
    """The tanaka pipeline on the configured generator, not forced Brownian."""
    return _decomposition_suite("tanaka", cfg, cfg.generator, cfg.function or "abs", np.empty(0))


def run_suite(name: str, cfg: SuiteConfig) -> SuiteResult:
    levels = _suite_levels(cfg)

    if name == "tanaka":
        return _decomposition_suite(name, cfg, _brownian_spec(cfg), cfg.function or "abs", np.empty(0))

    if name in ("moving_kink", "moving_kink_jump"):
        genspec = _brownian_spec(cfg) if name == "moving_kink" else _jump_diffusion_spec(cfg)
        return _decomposition_suite(name, cfg, genspec, "moving_kink(k_jump=0.5)", np.asarray([0.5]))

    if name == "negative_control":
        genspec = _brownian_spec(cfg)
        stats = np.asarray(map_chunked(_raw_zcqv_stats, cfg.n_paths, cfg.workers, args=(genspec, cfg)))
        verdict = summarize_zcqv(stats, levels, _meshes(genspec, levels), cfg.pass_fraction)
        details = {"generator": genspec.kind, "function": None, "note": "asserts the failure"}
        return SuiteResult(name=name, verdict=verdict, expected_pass=False, details=details)

    if name == "cross_variation":
        zspec = _compound_poisson_spec(cfg)
        yspec = replace(_brownian_spec(cfg), seed=cfg.generator.seed + 104729)
        rows = map_chunked(_cross_stats, cfg.n_paths, cfg.workers, args=(zspec, yspec, cfg))
        with_s = np.asarray([r[0] for r in rows])
        no_s = np.asarray([r[1] for r in rows])
        verdict = summarize_zcqv(with_s, levels, _meshes(zspec, levels), cfg.pass_fraction)
        details = {
            "generator": "compound_poisson x brownian",
            "function": None,
            "exploratory_no_exclusion_median": [float(v) for v in calculus.path_median(no_s)[0]],
        }
        return SuiteResult(name=name, verdict=verdict, expected_pass=True, details=details)

    if name == "zcqv_sum":
        spec1 = _compound_poisson_spec(cfg)
        spec2 = _compound_poisson_spec(cfg, seed_offset=7919)
        stats = np.asarray(
            map_chunked(_sum_zcqv_stats, cfg.n_paths, cfg.workers, args=(spec1, spec2, cfg))
        )
        verdict = summarize_zcqv(stats, levels, _meshes(spec1, levels), cfg.pass_fraction)
        details = {"generator": "compound_poisson + compound_poisson", "function": None}
        return SuiteResult(name=name, verdict=verdict, expected_pass=True, details=details)

    raise ConfigurationError(f"unknown suite {name!r}")


def _meshes(genspec: GeneratorSpec, levels) -> tuple:
    return tuple(genspec.horizon * 2.0 ** -float(lv) for lv in levels)
