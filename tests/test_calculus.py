import tracemalloc

import numpy as np
import pytest

from qvlab.calculus import (
    path_median,
    CovariationReport,
    covariation_ladder,
    cross_statistic,
    ito_cumulative,
    ito_integral,
    jump_sum,
    qv_partition,
    ucp_exceedance,
    zcqv_statistic,
)
from qvlab.generators import GeneratorSpec, generate, iter_blocks
from qvlab.partitions import (
    ExclusionSet,
    Partition,
    RefinementLadder,
    dyadic_partition,
    dyadic_partition_on_grid,
    inclusion_mask,
)
from qvlab.paths import PathEnsemble

from conftest import toy_path


def grid_partition(path):
    return Partition(cut_times=path.times)


def test_qv_constant_path_is_zero():
    p = toy_path([0, 1, 2], [3, 3, 3])
    assert qv_partition(p, p, dyadic_partition(2.0, 3), 2.0) == 0.0


def test_qv_direct_arithmetic():
    x = toy_path([0, 1, 2], [0, 1, 3])
    y = toy_path([0, 1, 2], [0, 2, 5])
    part = Partition(cut_times=np.asarray([0.0, 1.0, 2.0]))
    assert qv_partition(x, y, part, 2.0) == 1.0 * 2.0 + 2.0 * 3.0


def test_qv_stopped_semantics():
    x = toy_path([0, 1, 2], [0, 1, 3])
    part = Partition(cut_times=np.asarray([0.0, 1.0, 2.0]))
    # at t = 1 the second cell is stopped: increment zero
    assert qv_partition(x, x, part, 1.0) == 1.0


def test_qv_brownian_realized_variance(brownian_200_l12):
    part = dyadic_partition(1.0, 12)
    vals = np.asarray([qv_partition(p, p, part, 1.0) for p in brownian_200_l12])
    # sd of realized variance at 4096 cells is sqrt(2/4096) ~ 0.022
    assert np.mean(np.abs(vals - 1.0) <= 0.1) >= 0.95


def test_qv_nonnegative_on_diagonal(brownian_200_l12):
    part = dyadic_partition(1.0, 6)
    for p in list(brownian_200_l12)[:20]:
        assert qv_partition(p, p, part, 1.0) >= 0.0


def test_jump_sum_cases():
    # below-threshold increments contribute nothing
    p = toy_path([0, 1, 2], [0.0, 0.05, 0.1])
    assert jump_sum(p, p, 2.0, 0.2) == 0.0
    # single common jump
    x = toy_path([0, 1, 2], [0, 2, 2], [False, True, False])
    y = toy_path([0, 1, 2], [0, 3, 3], [False, True, False])
    assert jump_sum(x, y, 2.0, np.inf) == 6.0
    assert jump_sum(x, y, 0.5, np.inf) == 0.0  # jump after t
    # disjoint jump times: a zero factor at each
    x2 = toy_path([0, 1, 2], [0, 2, 2], [False, True, False])
    y2 = toy_path([0, 1, 2], [0, 0, 3], [False, False, True])
    assert jump_sum(x2, y2, 2.0, np.inf) == 0.0


def test_zcqv_constant_zero():
    p = toy_path([0, 1, 2], [4, 4, 4])
    assert zcqv_statistic(p, dyadic_partition(2.0, 4), ExclusionSet.empty(), 2.0) == 0.0


def test_zcqv_pure_jump_exact_zero(cp_ensemble):
    for p in list(cp_ensemble)[:10]:
        s = ExclusionSet.from_jumps(p)
        for level in (6, 9, 12):
            part = dyadic_partition(1.0, level)
            assert zcqv_statistic(p, part, s, 1.0) == 0.0


def test_zcqv_brownian_near_one(brownian_200_l12):
    part = dyadic_partition(1.0, 12)
    vals = np.asarray(
        [zcqv_statistic(p, part, ExclusionSet.empty(), 1.0) for p in brownian_200_l12]
    )
    assert np.mean(np.abs(vals - 1.0) <= 0.1) >= 0.95


def test_ito_constant_integrand_telescopes():
    rng = np.random.default_rng(5)
    p = toy_path(np.arange(65) / 64.0, rng.standard_normal(65))
    part = grid_partition(p)
    got = ito_integral(np.ones(64), p, part, 1.0)
    assert got == pytest.approx(p.values[-1] - p.values[0], abs=1e-12)
    got_c = ito_integral(np.full(64, 2.5), p, part, 1.0)
    assert got_c == pytest.approx(2.5 * (p.values[-1] - p.values[0]), abs=1e-12)


def test_ito_integer_paths_exact():
    p = toy_path(np.arange(5, dtype=float), [0.0, 2.0, -1.0, 3.0, 5.0])
    part = grid_partition(p)
    eta = np.asarray([1.0, 2.0, 0.5, -1.0])
    # 1*2 + 2*(-3) + 0.5*4 + (-1)*2
    assert ito_integral(eta, p, part, 4.0) == 2.0 - 6.0 + 2.0 - 2.0


def test_ito_cumulative_path():
    p = toy_path(np.arange(5, dtype=float), [0.0, 1.0, 1.0, 2.0, 2.0])
    out = ito_cumulative(np.ones(4), p, grid_partition(p), 4.0)
    assert list(out) == [0.0, 1.0, 1.0, 2.0, 2.0]


def test_ito_closed_form_oracle(brownian_200_l12):
    # int W dW = (W_t^2 - t)/2: check at the ensemble's own resolution
    hits = 0
    paths = list(brownian_200_l12)[:50]
    for p in paths:
        part = grid_partition(p)
        eta = p.values[:-1]
        got = ito_integral(eta, p, part, 1.0)
        target = (p.values[-1] ** 2 - 1.0) / 2.0
        hits += abs(got - target) <= 0.1
    assert hits >= 0.9 * len(paths)


def test_ito_length_mismatch():
    p = toy_path([0, 1], [0, 1])
    with pytest.raises(ValueError):
        ito_integral(np.ones(3), p, grid_partition(p), 1.0)


def test_mismatched_horizons_rejected():
    x = toy_path([0, 1], [0, 1])
    y = toy_path([0, 2], [0, 1])
    with pytest.raises(ValueError):
        qv_partition(x, y, dyadic_partition(1.0, 1), 1.0)


def test_polarization_exact_on_integer_paths():
    x = toy_path(np.arange(4, dtype=float), [0.0, 2.0, 1.0, 4.0])
    y = toy_path(np.arange(4, dtype=float), [0.0, -1.0, 3.0, 2.0])
    s = toy_path(np.arange(4, dtype=float), x.values + y.values)
    part = grid_partition(x)
    t = 3.0
    lhs = qv_partition(s, s, part, t) - qv_partition(x, x, part, t) - qv_partition(y, y, part, t)
    assert lhs == 2.0 * qv_partition(x, y, part, t)


def test_polarization_float_paths_8ulp(brownian_200_l12):
    x = brownian_200_l12[0]
    y = brownian_200_l12[1]
    s = toy_path(x.times, x.values + y.values)
    for level in (6, 9, 12):
        part = dyadic_partition(1.0, level)
        lhs = qv_partition(s, s, part, 1.0) - qv_partition(x, x, part, 1.0) - qv_partition(y, y, part, 1.0)
        rhs = 2.0 * qv_partition(x, y, part, 1.0)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 8 * np.finfo(float).eps * scale * 64


def test_bilinearity_exact_on_integer_paths():
    x = toy_path(np.arange(4, dtype=float), [0.0, 2.0, 1.0, 4.0])
    y = toy_path(np.arange(4, dtype=float), [0.0, -1.0, 3.0, 2.0])
    ax = toy_path(x.times, 3.0 * x.values)
    by = toy_path(y.times, -2.0 * y.values)
    part = grid_partition(x)
    assert qv_partition(ax, by, part, 3.0) == -6.0 * qv_partition(x, y, part, 3.0)


def test_pure_jump_qv_equals_jump_sum_exactly(cp_ensemble):
    for p in list(cp_ensemble)[:10]:
        jt = p.jump_times(np.inf)
        gaps = np.diff(np.concatenate([[0.0], jt, [1.0]]))
        min_gap = gaps[gaps > 0].min()
        level = min(12, int(np.ceil(-np.log2(min_gap))) + 1)
        part = dyadic_partition(1.0, level)
        qv = qv_partition(p, p, part, 1.0)
        js = jump_sum(p, p, 1.0, np.inf)
        assert qv == js
        # stable under further refinement
        assert qv_partition(p, p, dyadic_partition(1.0, 12), 1.0) == js


def test_cross_statistic_zero_when_jumps_excluded(cp_ensemble, brownian_200_l12):
    z = cp_ensemble[0]
    y = brownian_200_l12[0]
    s = ExclusionSet.from_jumps(z)
    for level in (6, 10, 12):
        part = dyadic_partition(1.0, level)
        assert cross_statistic(z, y, part, s, 1.0) == 0.0


def _rows(ens, lo, hi):
    return PathEnsemble(times=ens.times, values=ens.values[lo:hi], marks=ens.marks[lo:hi])


def test_covariation_ladder_report(brownian_200_l12):
    x = _rows(brownian_200_l12, 0, 1)
    ladder = RefinementLadder.dyadic(1.0, 4, 8, grid_times=x.times)
    t_grid = np.linspace(0.0, 1.0, 17)
    rep = covariation_ladder(x, x, ladder, t_grid, levels=tuple(range(4, 9)))
    assert rep.full.shape == (1, 5, 17)
    # report consistency: sweep full sums at grid times match scalar op
    for i, part in enumerate(ladder):
        for j, t in enumerate(t_grid):
            direct = qv_partition(x[0], x[0], part, float(t))
            assert rep.full[0, i, j] == pytest.approx(direct, abs=1e-12)
            direct_z = zcqv_statistic(x[0], part, ExclusionSet.empty(), float(t))
            assert rep.zcqv[0, i, j] == pytest.approx(direct_z, abs=1e-12)
    assert np.all(rep.continuous_part == rep.full - rep.jumps)
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "level,mesh,t,full_sum,jump_sum,continuous_part,zcqv_stat"


def test_covariation_ladder_cp_zcqv_column_zero(cp_ensemble):
    ladder = RefinementLadder.dyadic(1.0, 8, 12, grid_times=cp_ensemble.times)
    rep = covariation_ladder(cp_ensemble, cp_ensemble, ladder, np.linspace(0, 1, 9), threshold=np.inf)
    assert np.all(rep.zcqv == 0.0)
    # continuous part = full - jumps vanishes once every cell isolates a jump
    assert np.allclose(rep.continuous_part[:, -1], 0.0, atol=1e-12)


def test_independent_brownians_cross_variation_small():
    e1 = generate(GeneratorSpec(kind="brownian", n_steps=4096, seed=31), 64)
    e2 = generate(GeneratorSpec(kind="brownian", n_steps=4096, seed=32), 64)
    part = dyadic_partition(1.0, 12)
    vals = np.asarray([qv_partition(a, b, part, 1.0) for a, b in zip(e1, e2)])
    # cross-variation of independent BMs: mean 0, variance ~ t * mesh
    bound = 3.0 * np.sqrt(1.0 * 2.0 ** -12) * 4.0
    assert np.all(np.abs(vals) <= bound)


def test_ucp_exceedance_decreases(brownian_200_l12):
    ladder = RefinementLadder.dyadic(1.0, 4, 12, grid_times=brownian_200_l12.times)
    t_grid = np.linspace(0.0, 1.0, 33)
    ens = _rows(brownian_200_l12, 0, 50)
    exc = ucp_exceedance(covariation_ladder(ens, ens, ladder, t_grid).full, eps=0.1)
    assert exc[-1] == 0.0
    assert exc[0] >= exc[-2]


# ---------------------------------------------------------------------------
# bitwise oracle for the block ladder sweep: the per-path sweep it replaced,
# with one jump_sum call per t


def _reference_stopped(x, y, partition, t_grid):
    cuts = np.minimum(partition.cut_times, x.horizon)
    xv = x.eval_many(cuts)
    yv = y.eval_many(cuts)
    cum = np.concatenate([[0.0], np.cumsum(np.diff(xv) * np.diff(yv))])
    j = np.searchsorted(partition.cut_times, t_grid, side="right") - 1
    j = np.clip(j, 0, partition.n_cells)
    xt = x.eval_many(t_grid)
    yt = y.eval_many(t_grid)
    boundary = np.where(j < partition.n_cells, (xt - xv[j]) * (yt - yv[j]), 0.0)
    return cum[j] + boundary


def _reference_included(x, y, partition, exclusions, t_grid):
    cuts = np.minimum(partition.cut_times, x.horizon)
    xv = x.eval_many(cuts)
    yv = y.eval_many(cuts)
    dxdy = np.diff(xv) * np.diff(yv)
    mask = inclusion_mask(partition, exclusions, np.inf)
    cum = np.concatenate([[0.0], np.cumsum(np.where(mask, dxdy, 0.0))])
    return cum[np.searchsorted(partition.cut_times[1:], t_grid, side="left")]


def _reference_ladder(x, y, ladder, t_grid, threshold):
    """(full, jumps, continuous_part, zcqv) of one path pair, (n_levels, n_t) each."""
    exclusions = ExclusionSet.from_jumps(x, y, threshold=threshold)
    n_l, n_t = len(ladder), t_grid.size
    full = np.empty((n_l, n_t))
    zc = np.empty((n_l, n_t))
    jumps = np.empty((n_l, n_t))
    jump_row = np.asarray([jump_sum(x, y, t, threshold) for t in t_grid])
    for i, part in enumerate(ladder):
        full[i] = _reference_stopped(x, y, part, t_grid)
        zc[i] = _reference_included(x, y, part, exclusions, t_grid)
        jumps[i] = jump_row
    return full, jumps, full - jumps, zc


def _reference_ucp(fulls, eps):
    out = []
    for i in range(fulls[0].shape[0]):
        count = sum(1 for f in fulls if np.max(np.abs(f[i] - f[-1])) > eps)
        out.append(count / len(fulls))
    return out


ORACLE_CASES = {
    "brownian": (dict(kind="brownian"), None, np.inf),
    "jump_diffusion": (dict(kind="jump_diffusion", jump_rate=20.0, sigma="abs_shift(0.5, 0.5)"), None, 0.1),
    "compound_poisson": (dict(kind="compound_poisson", jump_rate=30.0), None, np.inf),
    "cross_pair": (
        dict(kind="brownian"),
        dict(kind="jump_diffusion", jump_rate=20.0, jump_law="uniform(-1, 3)", seed=99),
        0.08,
    ),
}


def _oracle_ladder(times):
    # a partition past the horizon and an uneven one short of it exercise the
    # gathered (not strided) cut indices; the dyadic levels are strided views
    uneven = Partition(cut_times=times[[0, 5, 90, 300, 301, 700]])
    beyond = Partition(cut_times=np.asarray([0.0, 0.5, 1.0, 1.5]))
    dyadic = [dyadic_partition_on_grid(times, level) for level in range(3, 11)]
    return RefinementLadder(levels=(beyond, uneven, *dyadic))


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_covariation_ladder_matches_per_path_reference(name):
    xkw, ykw, threshold = ORACLE_CASES[name]
    xspec = GeneratorSpec(n_steps=1024, seed=2024, **xkw)
    yspec = xspec if ykw is None else GeneratorSpec(n_steps=1024, **ykw)
    times = xspec.grid()
    ladder = _oracle_ladder(times)
    rng = np.random.default_rng(7)
    t_grid = np.sort(np.concatenate([np.linspace(0.0, 1.0, 33), rng.uniform(0.0, 1.0, 16), times[[3, 301]]]))
    blocks = []
    for xb, yb in zip(iter_blocks(xspec, 0, 130), iter_blocks(yspec, 0, 130)):
        y = xb if ykw is None else yb
        blocks.append(covariation_ladder(xb, y, ladder, t_grid, threshold=threshold))
    rep = CovariationReport.concat(blocks)
    xs = generate(xspec, 130)
    ys = xs if ykw is None else generate(yspec, 130)
    ref = [_reference_ladder(x, y, ladder, t_grid, threshold) for x, y in zip(xs, ys)]
    for k, name in enumerate(("full", "jumps", "continuous_part", "zcqv")):
        got = getattr(rep, name)
        assert got.shape == (130, len(ladder), t_grid.size)
        assert got.tobytes() == np.stack([r[k] for r in ref]).tobytes(), name
    if ykw is not None or threshold < np.inf:
        assert np.any(rep.jumps != 0.0) and np.any(rep.zcqv != rep.full)
    for eps in (0.01, 0.1):
        assert ucp_exceedance(rep.full, eps) == _reference_ucp([r[0] for r in ref], eps)


def test_covariation_ladder_needs_cuts_on_the_grid(brownian_200_l12):
    ens = _rows(brownian_200_l12, 0, 2)
    off_grid = RefinementLadder(levels=(Partition(cut_times=np.asarray([0.0, 0.3, 1.0])),))
    with pytest.raises(ValueError, match="grid"):
        covariation_ladder(ens, ens, off_grid, np.linspace(0.0, 1.0, 5))


def test_ladder_sweep_peak_memory_within_four_value_blocks():
    spec = GeneratorSpec(kind="brownian", n_steps=4096, seed=12345)
    times = spec.grid()
    ladder = RefinementLadder.dyadic(1.0, 6, 12, grid_times=times)
    t_grid = np.linspace(0.0, 1.0, 65)
    # a one-row run first, so lazily built module state is not counted
    warm = generate(spec, 1)
    covariation_ladder(warm, warm, ladder, t_grid, threshold=0.05)
    tracemalloc.start()
    try:
        ens = generate(spec, 64)
        rep = covariation_ladder(ens, ens, ladder, t_grid, threshold=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.full.shape == (64, 7, 65)
    assert peak <= 4 * ens.values.nbytes


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
def test_path_median_matches_numpy_bitwise(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 4, 12))
    a[:, 0, :] = rng.choice([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0], size=(n, 12))
    a[:, 1, :] = -0.0
    a[:, 2, :6] = np.nan
    a[0, 2, 6:] = np.nan  # one NaN per column
    a[:, 3, 0] = np.inf
    a[:, 3, 1] = -np.inf
    want = np.median(a, axis=0, keepdims=True)
    got = path_median(a)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert not np.signbit(got[0, 1]).any()  # -0.0 comes out as 0.0
