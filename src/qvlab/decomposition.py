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
alone, so a path decomposes to the same bits alone or in any block.

Each named suite is a Suite record in one table, suites(cfg): the specs
it draws, its block measure and its report keys.  run_suite looks a name up
there; run_decompose runs the tanaka record on the configured generator.
They only read the ExperimentConfig, so this module does not import config
at run time.  Every suite has one pool task, _block: it generates one
cell-sized block of paths (generators.block_rows) of each spec, with row r
of each block the same path, measures them on the first spec's ladder, and
returns one row per path in arrays, which the suite joins in path order.
A record's specs differ only in kind, seed or jump rate: they share a grid.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import _kernels, calculus
from ._parallel import map_chunked
from .errors import ConfigurationError, NonFiniteError
from .functions import PathFunction, make_function
from .generators import block_rows, generate
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


def decompose_block(f: PathFunction, ens: PathEnsemble) -> np.ndarray:
    """V for every path of the block, on the path grid: (n, n_grid); row r
    has the same bits as a one-row block of path r."""
    times, values = ens.times, ens.values
    v = calculus.ito_rows(values, lambda a, b: _eta(f, times[:-1], _integrand_states(values, ens.marks, a, b)))
    step = max(1, _kernels.CELLS // times.size)
    for a in range(0, len(v), step):
        np.subtract(f(times, values[a : a + step]), v[a : a + step], out=v[a : a + step])
    return v


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


class Suite(NamedTuple):
    """One suite: the specs a block draws and what it measures on them.

    measure(blocks, ladder, suite, cfg) returns a block's (paths, n_levels)
    statistics, then any per-path extras; details(*extras), on the extras of
    every path, gives the report's own keys.  sep joins the spec kinds into
    the report's generator.  function and extra_s are the decomposition's f
    and the times it adds to S.  Every field pickles, for the pool.
    """

    specs: tuple
    measure: Callable
    details: Callable = dict
    expected_pass: bool = True
    function: str | None = None
    extra_s: tuple = ()
    sep: str = " + "


def _require_finite(block: np.ndarray, what: str) -> None:
    """Raise NonFiniteError for the first row of block that is not finite,
    carrying the row for _block to name the path."""
    bad = ~np.isfinite(block).all(axis=1)
    if bad.any():
        err = NonFiniteError(f"non-finite {what}")
        err.row = int(np.argmax(bad))
        raise err


def _block(lo: int, hi: int, suite: Suite, cfg: ExperimentConfig) -> tuple:
    """Pool task: paths lo .. hi-1 of every spec, measured on one ladder.

    A NonFiniteError for row r of the block is re-raised naming the seed
    and path lo + r, so make_path(suite.specs[0], lo + r) replays it.
    """
    blocks = [generate(spec, hi - lo, lo) for spec in suite.specs]
    ladder = RefinementLadder(blocks[0].times, cfg.l_min, cfg.l_max)
    try:
        out = suite.measure(blocks, ladder, suite, cfg)
        _require_finite(out[0], "statistic")
    except NonFiniteError as err:
        if err.row is None:
            raise
        raise NonFiniteError(f"{err} at (seed={suite.specs[0].seed}, path={lo + err.row})") from err
    return out


def _common_columns(times: np.ndarray, common) -> np.ndarray:
    """(n_grid,) mask of the grid columns of the times `common`: each time's
    first grid time at or after it.  Times past the grid are dropped."""
    cols = np.searchsorted(times, np.asarray(common, dtype=np.float64), side="left")
    mask = np.zeros(times.size, dtype=bool)
    mask[cols[cols < times.size]] = True
    return mask


def _jumps(blocks, cfg: ExperimentConfig) -> np.ndarray:
    """The union of the blocks' jump masks under cfg's threshold."""
    return reduce(np.logical_or, (calculus.jump_grid(b, cfg.jump_threshold) for b in blocks))


def _decomposed(blocks, ladder, suite: Suite, cfg: ExperimentConfig) -> tuple:
    """V's statistic per level, with S = each path's marked jumps, f's time
    jumps and the suite's extra times, then each path's final V:
    (paths, n_levels) and (paths,)."""
    (ens,) = blocks
    f = make_function(suite.function)
    common = _common_columns(ladder.times, f.time_jumps + suite.extra_s)
    v = decompose_block(f, ens)
    _require_finite(v, "V")
    return calculus.zcqv_ladder(v, ladder, ens.horizon, ens.marks | common), v[:, -1].copy()


def _decomposed_details(final_v) -> dict:
    return {"mean_final_v": float(np.mean(final_v))}


def _summed(blocks, ladder, suite: Suite, cfg: ExperimentConfig) -> tuple:
    """The statistic of the sum of the blocks' paths (one block: the path
    itself), S = the union of their jumps; (paths, n_levels)."""
    x = reduce(np.add, (b.values for b in blocks))
    return (calculus.zcqv_ladder(x, ladder, blocks[0].horizon, _jumps(blocks, cfg)),)


def _crossed(blocks, ladder, suite: Suite, cfg: ExperimentConfig) -> tuple:
    """Included-cell |dZ dY| per level, S = the jumps of Z and Y;
    (paths, n_levels)."""
    z, y = blocks
    return (calculus.zcqv_ladder(z.values, ladder, z.horizon, _jumps(blocks, cfg), y=y.values, absolute=True),)


def suites(cfg: ExperimentConfig) -> dict:
    """The named suites on cfg's generator, in the order cli.SUITES lists
    them.  Each sets the kind of the specs it draws; the jump kinds run at
    jump rate 3.0 unless cfg's generator sets one."""
    spec = cfg.generator_spec()
    brownian = spec._replace(kind="brownian")
    rated = spec._replace(jump_rate=spec.jump_rate if spec.jump_rate > 0 else 3.0)
    poisson = rated._replace(kind="compound_poisson")
    tanaka = Suite((brownian,), _decomposed, _decomposed_details, function=cfg.function or "abs")
    kink = tanaka._replace(function="moving_kink(k_jump=0.5)", extra_s=(0.5,))
    return {
        "tanaka": tanaka,
        "moving_kink": kink,
        "moving_kink_jump": kink._replace(specs=(rated._replace(kind="jump_diffusion"),)),
        "cross_variation": Suite((poisson, brownian._replace(seed=cfg.seed + 104729)), _crossed, sep=" x "),
        "zcqv_sum": Suite((poisson, poisson._replace(seed=cfg.seed + 7919)), _summed),
        "negative_control": Suite((brownian,), _summed, partial(dict, note="asserts the failure"),
                                  expected_pass=False),
    }


def _run(name: str, suite: Suite, cfg: ExperimentConfig) -> SuiteResult:
    """suite over cfg's paths, a block per pool task, and its verdict."""
    spec = suite.specs[0]
    ladder = RefinementLadder(spec.grid(), cfg.l_min, cfg.l_max)
    parts = map_chunked(_block, cfg.n_paths, block_rows(spec.n_steps), cfg.workers, (suite, cfg))
    stats, *extras = (np.concatenate(p) for p in zip(*parts))
    verdict = summarize_zcqv(stats, [lev.level for lev in ladder], ladder.meshes, cfg.pass_fraction)
    details = {"generator": suite.sep.join(s.kind for s in suite.specs), "function": suite.function}
    details.update(suite.details(*extras))
    return SuiteResult(name=name, verdict=verdict, expected_pass=suite.expected_pass, details=details)


def run_decompose(cfg: ExperimentConfig) -> SuiteResult:
    """The tanaka suite on the configured generator, not forced Brownian."""
    tanaka = suites(cfg)["tanaka"]
    return _run("tanaka", tanaka._replace(specs=(cfg.generator_spec(),)), cfg)


def run_suite(name: str, cfg: ExperimentConfig) -> SuiteResult:
    """The named suite on cfg's paths, levels, pass rule and workers."""
    table = suites(cfg)
    if name not in table:
        raise ConfigurationError(f"unknown suite {name!r}")
    return _run(name, table[name], cfg)
