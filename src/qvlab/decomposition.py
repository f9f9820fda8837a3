"""Ito-sum decomposition of f(t, X_t) and the zero-continuous-QV verdict.

The decomposition f(t, X_t) = sum_k D_x f(tau_{k-1}, X-state) dX + V runs
on a block of paths at once.  The integrand state is the value itself, or
the left limit at a marked jump; eta is f.dx_exact on the (rows x cells)
state block, the Ito sum is one row-wise kernel pass (calculus.ito_rows) and
V = f - integral.  The states, terms and f are formed a slab of rows at a
time, so V is the only full-size array a block adds.  zcqv_ladder then
measures the included-cell squared-increment statistic of V at every
refinement level, one kernel pass per level, and summarize_zcqv turns the
decay into a pass/fail verdict.  Row r of every block depends on path r
alone, so a path decomposes to the same bits alone or in any block.  The
named suites (run_suite, and run_decompose on the configured generator)
take the ExperimentConfig itself and only read its fields, so this module
does not import config at run time.  They run over an ensemble with a
deterministic worker pool: each pool task is one cell-sized block of paths
(generators.block_rows), generated once, and returns one row per path in
arrays, which the suite joins in path order.  The two-ensemble suites
generate the same span of both ensembles and refuse blocks that differ in
shape or grid, so path i of one is never measured against another path of
the other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import _kernels, calculus
from ._parallel import map_chunked
from .errors import ConfigurationError, NonFiniteError
from .functions import PathFunction, make_function
from .generators import GeneratorSpec, block_rows, generate
from .partitions import RefinementLadder
from .paths import PathEnsemble

if TYPE_CHECKING:
    from .config import ExperimentConfig


def _integrand_states(values, marks, a: int, b: int) -> np.ndarray:
    """The state fed to D_x f at each left grid time, for rows a .. b-1.

    At generator-marked jump times the left limit is used (X_{0-} = X_0);
    elsewhere the cadlag value itself, since between marks the underlying
    dynamics are continuous and the grid's piecewise-constant 'left limit'
    would lag the true state by one cell.
    """
    states = values[a:b, :-1].copy()
    np.copyto(states[:, 1:], values[a:b, :-2], where=marks[a:b, 1:-1])
    return states


def _eta(f: PathFunction, t: np.ndarray, states: np.ndarray) -> np.ndarray:
    return np.asarray(f.dx_exact(t, states), dtype=float)


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

    V is (n, n_grid); row r has the same bits as a one-row block of path r.
    """
    times, values = ens.times, ens.values
    v = calculus.ito_rows(values, lambda a, b: _eta(f, times[:-1], _integrand_states(values, ens.marks, a, b)))
    step = max(1, _kernels.CELLS // times.size)
    for a in range(0, len(v), step):
        np.subtract(f(times, values[a : a + step]), v[a : a + step], out=v[a : a + step])
    return v, _kink_mass(f, times, values)


# ---------------------------------------------------------------------------
# z.c.q.v. verdict


class ZcqvVerdict(NamedTuple):
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


# ---------------------------------------------------------------------------
# named experiment suites


class SuiteResult(NamedTuple):
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


def _suite_levels(cfg: ExperimentConfig):
    return tuple(range(cfg.l_min, cfg.l_max + 1))


def _require_finite(block: np.ndarray, what: str, spec: GeneratorSpec, start: int) -> None:
    """Name the seed and index of the first path whose row is not finite,
    so make_path(spec, index) replays it."""
    bad = ~np.isfinite(block).all(axis=1)
    if bad.any():
        path = start + int(np.argmax(bad))
        raise NonFiniteError(f"non-finite {what} at (seed={spec.seed}, path={path})")


@contextmanager
def _naming_paths(spec: GeneratorSpec, start: int):
    """Re-raise a kernel's NonFiniteError for row r of the block that starts
    at path `start` as one naming the seed and path start + r, as
    _require_finite does."""
    try:
        yield
    except NonFiniteError as err:
        if err.row is None:
            raise
        raise NonFiniteError(f"{err} at (seed={spec.seed}, path={start + err.row})") from err


def _paired(spec1: GeneratorSpec, spec2: GeneratorSpec, lo: int, hi: int) -> tuple:
    """Paths lo .. hi-1 of both ensembles: row r of both blocks is path
    lo + r.  Refused unless both blocks lie on one grid."""
    a, b = generate(spec1, hi - lo, lo), generate(spec2, hi - lo, lo)
    if a.values.shape != b.values.shape or not np.array_equal(a.times, b.times):
        raise ValueError(
            f"paired blocks at path {lo} differ: {a.values.shape} and {b.values.shape} "
            "values; both ensembles must lie on one grid"
        )
    return a, b


def _ladder(spec: GeneratorSpec, cfg: ExperimentConfig) -> RefinementLadder:
    return RefinementLadder(spec.grid(), cfg.l_min, cfg.l_max)


def _common_columns(times: np.ndarray, common) -> np.ndarray:
    """(n_grid,) mask of the grid columns of the times `common`: each time's
    first grid time at or after it.  Times past the grid are dropped."""
    cols = np.searchsorted(times, np.asarray(common, dtype=np.float64), side="left")
    mask = np.zeros(times.size, dtype=bool)
    mask[cols[cols < times.size]] = True
    return mask


def _decomposition_stats(lo, hi, genspec: GeneratorSpec, fexpr: str, cfg: ExperimentConfig, extra_s_times):
    """Block task: generate paths lo .. hi-1, decompose on the path grid,
    statistic per level.

    S holds each path's marked jumps, the function's time jumps and the
    suite's extra times.  Returns the block's (statistics, kink masses,
    final V), (paths, n_levels), (paths,) and (paths,).
    """
    f = make_function(fexpr)
    ladder = _ladder(genspec, cfg)
    common = _common_columns(ladder.times, np.concatenate([f.time_jumps, extra_s_times]))
    ens = generate(genspec, hi - lo, lo)
    with _naming_paths(genspec, lo):
        v, kink = decompose_block(f, ens)
        _require_finite(v, "V", genspec, lo)
        stats = calculus.zcqv_ladder(v, ladder, ens.horizon, ens.marks | common)
    _require_finite(stats, "statistic", genspec, lo)
    return stats, kink, v[:, -1].copy()


def _raw_zcqv_stats(lo, hi, genspec: GeneratorSpec, cfg: ExperimentConfig):
    """Negative control task: the statistic on X itself, S = its jumps;
    (paths, n_levels)."""
    ens = generate(genspec, hi - lo, lo)
    sel = calculus.jump_grid(ens, cfg.jump_threshold)
    with _naming_paths(genspec, lo):
        stats = calculus.zcqv_ladder(ens.values, _ladder(genspec, cfg), ens.horizon, sel)
    _require_finite(stats, "statistic", genspec, lo)
    return stats


def _cross_stats(lo, hi, zspec: GeneratorSpec, yspec: GeneratorSpec, cfg: ExperimentConfig):
    """Included-cell |dZ dY| per level, S = the jumps of Z and Y, and the
    same with S empty: two (paths, n_levels) arrays."""
    ladder = _ladder(zspec, cfg)
    z, y = _paired(zspec, yspec, lo, hi)
    sel = calculus.jump_grid(z, cfg.jump_threshold) | calculus.jump_grid(y, cfg.jump_threshold)
    with _naming_paths(zspec, lo):
        with_s = calculus.zcqv_ladder(z.values, ladder, z.horizon, sel, y=y.values, absolute=True)
        no_s = calculus.zcqv_ladder(z.values, ladder, z.horizon, y=y.values, absolute=True)
    # with_s adds a subset of the nonnegative terms that no_s adds
    _require_finite(no_s, "statistic", zspec, lo)
    return with_s, no_s


def _sum_zcqv_stats(lo, hi, spec1: GeneratorSpec, spec2: GeneratorSpec, cfg: ExperimentConfig):
    """Statistic for Z1 + Z2 with S = the union of both jump sets;
    (paths, n_levels)."""
    z1, z2 = _paired(spec1, spec2, lo, hi)
    sel = calculus.jump_grid(z1, cfg.jump_threshold) | calculus.jump_grid(z2, cfg.jump_threshold)
    with _naming_paths(spec1, lo):
        stats = calculus.zcqv_ladder(z1.values + z2.values, _ladder(spec1, cfg), z1.horizon, sel)
    _require_finite(stats, "statistic", spec1, lo)
    return stats


def _blocks(task, spec: GeneratorSpec, cfg: ExperimentConfig, args: tuple):
    """task over every block of the suite's paths, its results joined in
    path order: arrays, or tuples of arrays joined field by field."""
    parts = map_chunked(task, cfg.n_paths, block_rows(spec.n_steps), cfg.workers, args)
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _jump_spec(spec: GeneratorSpec, kind: str, seed_offset: int = 0) -> GeneratorSpec:
    """spec as the jump kind `kind`, at jump rate 3.0 unless it sets one."""
    rate = spec.jump_rate if spec.jump_rate > 0 else 3.0
    return spec._replace(kind=kind, jump_rate=rate, seed=spec.seed + seed_offset)


def _decomposition_suite(
    name: str, cfg: ExperimentConfig, genspec: GeneratorSpec, fexpr: str, extra
) -> SuiteResult:
    levels = _suite_levels(cfg)
    stats, kink, final_v = _blocks(_decomposition_stats, genspec, cfg, (genspec, fexpr, cfg, extra))
    verdict = summarize_zcqv(stats, levels, _meshes(genspec, levels), cfg.pass_fraction)
    details = {
        "generator": genspec.kind,
        "function": fexpr,
        "median_kink_qv_mass": float(calculus.path_median(kink)[0]),
        "mean_final_v": float(np.mean(final_v)),
    }
    return SuiteResult(name=name, verdict=verdict, expected_pass=True, details=details)


def run_decompose(cfg: ExperimentConfig) -> SuiteResult:
    """The tanaka pipeline on the configured generator, not forced Brownian."""
    return _decomposition_suite("tanaka", cfg, cfg.generator_spec(), cfg.function or "abs", np.empty(0))


def run_suite(name: str, cfg: ExperimentConfig) -> SuiteResult:
    """The named suite on cfg's paths, levels, pass rule and workers; each
    suite sets the generator kind it runs from cfg's generator."""
    levels = _suite_levels(cfg)
    spec = cfg.generator_spec()
    brownian = spec._replace(kind="brownian")

    if name == "tanaka":
        return _decomposition_suite(name, cfg, brownian, cfg.function or "abs", np.empty(0))

    if name in ("moving_kink", "moving_kink_jump"):
        genspec = brownian if name == "moving_kink" else _jump_spec(spec, "jump_diffusion")
        return _decomposition_suite(name, cfg, genspec, "moving_kink(k_jump=0.5)", np.asarray([0.5]))

    if name == "negative_control":
        genspec = brownian
        stats = _blocks(_raw_zcqv_stats, genspec, cfg, (genspec, cfg))
        verdict = summarize_zcqv(stats, levels, _meshes(genspec, levels), cfg.pass_fraction)
        details = {"generator": genspec.kind, "function": None, "note": "asserts the failure"}
        return SuiteResult(name=name, verdict=verdict, expected_pass=False, details=details)

    if name == "cross_variation":
        zspec = _jump_spec(spec, "compound_poisson")
        yspec = brownian._replace(seed=cfg.seed + 104729)
        with_s, no_s = _blocks(_cross_stats, zspec, cfg, (zspec, yspec, cfg))
        verdict = summarize_zcqv(with_s, levels, _meshes(zspec, levels), cfg.pass_fraction)
        details = {
            "generator": "compound_poisson x brownian",
            "function": None,
            "exploratory_no_exclusion_median": [float(v) for v in calculus.path_median(no_s)[0]],
        }
        return SuiteResult(name=name, verdict=verdict, expected_pass=True, details=details)

    if name == "zcqv_sum":
        spec1 = _jump_spec(spec, "compound_poisson")
        spec2 = _jump_spec(spec, "compound_poisson", seed_offset=7919)
        stats = _blocks(_sum_zcqv_stats, spec1, cfg, (spec1, spec2, cfg))
        verdict = summarize_zcqv(stats, levels, _meshes(spec1, levels), cfg.pass_fraction)
        details = {"generator": "compound_poisson + compound_poisson", "function": None}
        return SuiteResult(name=name, verdict=verdict, expected_pass=True, details=details)

    raise ConfigurationError(f"unknown suite {name!r}")


def _meshes(genspec: GeneratorSpec, levels) -> tuple:
    return tuple(genspec.horizon * 2.0 ** -float(lv) for lv in levels)
