import tracemalloc
import warnings

import numpy as np
import pytest

from qvlab import _kernels, calculus
from qvlab.calculus import (
    path_median,
    path_percentile,
    CovariationSums,
    cell_sums,
    covariation_ladder,
    ito_rows,
    ucp_exceedance,
    zcqv_ladder,
)
from qvlab.generators import GeneratorSpec, block_rows, generate
from qvlab.partitions import RefinementLadder

from conftest import jump_times, left_limit, rows_of, toy_ensemble, value_at


def grid_ladder(ens):
    """The one-level ladder whose cuts are the ensemble's grid of 2^k steps."""
    level = (ens.times.size - 1).bit_length() - 1
    return RefinementLadder(ens.times, level, level)


def covariation(x, y, ladder):
    """Sum of dX dY over every cell of each level, (n_paths, n_levels): the
    included-cell statistic with S empty and t past every cut."""
    return zcqv_ladder(x.values, ladder, np.inf, y=y.values)


def ito(eta, y):
    """Left-point Ito running sums along one path's values y, as a one-row block."""
    return ito_rows(np.asarray(y, dtype=float)[None], lambda a, b: eta)[0]


def test_qv_constant_path_is_zero():
    p = toy_ensemble(np.arange(9) / 4.0, np.full(9, 3.0))
    assert covariation(p, p, grid_ladder(p)).tolist() == [[0.0]]


def test_qv_direct_arithmetic():
    x = toy_ensemble([0.0, 1.0, 2.0], [0, 1, 3])
    y = toy_ensemble([0.0, 1.0, 2.0], [0, 2, 5])
    assert covariation(x, y, grid_ladder(x)).tolist() == [[1.0 * 2.0 + 2.0 * 3.0]]


def test_qv_stopped_semantics():
    x = toy_ensemble([0.0, 1.0, 2.0], [0, 1, 3])
    # at t = 1 the second cell is stopped: increment zero
    assert covariation_ladder(x, grid_ladder(x), np.asarray([1.0])).full.tolist() == [[[1.0]]]


def test_qv_brownian_realized_variance(brownian_200_l12):
    b = brownian_200_l12
    vals = covariation(b, b, RefinementLadder(b.times, 12, 12))[:, 0]
    # sd of realized variance at 4096 cells is sqrt(2/4096) ~ 0.022
    assert np.mean(np.abs(vals - 1.0) <= 0.1) >= 0.95


def test_qv_nonnegative_on_diagonal(brownian_200_l12):
    b = brownian_200_l12
    assert np.all(covariation(b, b, RefinementLadder(b.times, 6, 6)) >= 0.0)


def test_jump_sum_cases():
    times = [0.0, 1.0, 2.0]

    def jump_sums(x, threshold, t_grid):
        rep = covariation_ladder(x, grid_ladder(x), np.asarray(t_grid), threshold=threshold)
        return rep.jumps[0].tolist()

    # below-threshold increments contribute nothing
    p = toy_ensemble(times, [0.0, 0.05, 0.1])
    assert jump_sums(p, 0.2, [2.0]) == [0.0]
    # single jump; at t = 0.5 it is still ahead
    x = toy_ensemble(times, [0, 2, 2], [False, True, False])
    assert jump_sums(x, np.inf, [2.0, 0.5]) == [4.0, 0.0]


def test_zcqv_constant_zero():
    p = toy_ensemble(np.arange(17) / 8.0, np.full(17, 4.0))
    assert zcqv_ladder(p.values, grid_ladder(p), 2.0).tolist() == [[0.0]]


def test_zcqv_pure_jump_exact_zero(cp_ensemble):
    # S holds each path's marked jumps
    ladder = RefinementLadder(cp_ensemble.times, 6, 12)
    stats = zcqv_ladder(cp_ensemble.values, ladder, 1.0, cp_ensemble.marks)
    assert np.all(stats == 0.0)


def test_zcqv_brownian_near_one(brownian_200_l12):
    b = brownian_200_l12
    vals = zcqv_ladder(b.values, RefinementLadder(b.times, 12, 12), 1.0)[:, 0]
    assert np.mean(np.abs(vals - 1.0) <= 0.1) >= 0.95


def test_ito_constant_integrand_telescopes():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(65)
    assert ito(np.ones(64), y)[-1] == pytest.approx(y[-1] - y[0], abs=1e-12)
    assert ito(np.full(64, 2.5), y)[-1] == pytest.approx(2.5 * (y[-1] - y[0]), abs=1e-12)


def test_ito_integer_paths_exact():
    eta = np.asarray([1.0, 2.0, 0.5, -1.0])
    # 1*2 + 2*(-3) + 0.5*4 + (-1)*2
    assert ito(eta, [0.0, 2.0, -1.0, 3.0, 5.0])[-1] == 2.0 - 6.0 + 2.0 - 2.0


def test_ito_cumulative_path():
    assert list(ito(np.ones(4), [0.0, 1.0, 1.0, 2.0, 2.0])) == [0.0, 1.0, 1.0, 2.0, 2.0]


def test_ito_closed_form_oracle(brownian_200_l12):
    # int W dW = (W_t^2 - t)/2: check at the ensemble's own resolution
    w = brownian_200_l12.values
    got = ito_rows(w, lambda a, b: w[a:b, :-1])[:, -1]
    target = (w[:, -1] ** 2 - 1.0) / 2.0
    assert np.count_nonzero(np.abs(got - target) <= 0.1) >= 0.9 * len(w)


def test_polarization_exact_on_integer_paths():
    times = np.arange(5, dtype=float)
    x = toy_ensemble(times, [0.0, 2.0, 1.0, 4.0, 3.0])
    y = toy_ensemble(times, [0.0, -1.0, 3.0, 2.0, 5.0])
    s = toy_ensemble(times, x.values + y.values)
    ladder = grid_ladder(x)
    lhs = covariation(s, s, ladder) - covariation(x, x, ladder) - covariation(y, y, ladder)
    assert lhs.tolist() == (2.0 * covariation(x, y, ladder)).tolist()


def test_polarization_float_paths_8ulp(brownian_200_l12):
    x = rows_of(brownian_200_l12, 0, 1)
    y = rows_of(brownian_200_l12, 1, 2)
    s = toy_ensemble(x.times, x.values + y.values)
    ladder = RefinementLadder(x.times, 6, 12)
    lhs = covariation(s, s, ladder) - covariation(x, x, ladder) - covariation(y, y, ladder)
    rhs = 2.0 * covariation(x, y, ladder)
    scale = np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    assert np.all(np.abs(lhs - rhs) <= 8 * np.finfo(float).eps * scale * 64)


def test_bilinearity_exact_on_integer_paths():
    times = np.arange(5, dtype=float)
    x = toy_ensemble(times, [0.0, 2.0, 1.0, 4.0, 3.0])
    y = toy_ensemble(times, [0.0, -1.0, 3.0, 2.0, 5.0])
    ax = toy_ensemble(times, 3.0 * x.values)
    by = toy_ensemble(times, -2.0 * y.values)
    ladder = grid_ladder(x)
    assert covariation(ax, by, ladder).tolist() == (-6.0 * covariation(x, y, ladder)).tolist()


def test_pure_jump_qv_equals_jump_sum_exactly(cp_ensemble):
    # like with like: the suites' faithfully rounded statistic against the
    # faithfully rounded sum of the same jump terms, and qv's plain running
    # sums against its own jump sums
    ens = rows_of(cp_ensemble, 0, 10)
    ladder = RefinementLadder(ens.times, 0, 12)
    qv = covariation(ens, ens, ladder)
    sums = covariation_ladder(ens, ladder, np.asarray([1.0]))
    for r in range(len(ens)):
        p = rows_of(ens, r, r + 1)
        jt = jump_times(p, np.inf)
        gaps = np.diff(np.concatenate([[0.0], jt, [1.0]]))
        min_gap = gaps[gaps > 0].min()
        level = min(12, int(np.ceil(-np.log2(min_gap))) + 1)
        terms = (value_at(p, jt) - left_limit(p, jt))[None] ** 2
        faithful = _kernels.row_sums(lambda a, b: terms, terms.shape)[0]
        assert qv[r, level] == faithful
        # stable under further refinement
        assert qv[r, -1] == faithful
        assert sums.full[r, level, 0] == sums.full[r, -1, 0] == sums.jumps[r, 0]


def test_cross_statistic_zero_when_jumps_excluded(cp_ensemble, brownian_200_l12):
    z = cp_ensemble
    y = rows_of(brownian_200_l12, 0, len(z))
    ladder = RefinementLadder(z.times, 6, 12)
    stats = zcqv_ladder(z.values, ladder, 1.0, z.marks, y=y.values, absolute=True)
    assert np.all(stats == 0.0)


def test_covariation_ladder_report(brownian_200_l12):
    x = rows_of(brownian_200_l12, 0, 1)
    ladder = RefinementLadder(x.times, 4, 8)
    t_grid = np.linspace(0.0, 1.0, 17)
    rep = covariation_ladder(x, ladder, t_grid, out=CovariationSums.empty(1, ladder, t_grid))
    assert rep.full.shape == (1, 5, 17)
    # report consistency: the sweep at each t against the stopped values
    # summed by cell_sums, and against zcqv_ladder
    for i, part in enumerate(ladder):
        for j, t in enumerate(t_grid):
            xv = value_at(x, np.minimum(part.cut_times, t))[None]
            assert rep.full[0, i, j] == pytest.approx(cell_sums(xv, xv)[0], abs=1e-12)
    for j, t in enumerate(t_grid):
        assert rep.zcqv[0, :, j] == pytest.approx(zcqv_ladder(x.values, ladder, float(t))[0], abs=1e-12)
    assert rep.jumps.shape == (1, 17)
    med = rep.median()
    # the median of one path is that path
    for name in ("full", "jumps", "zcqv"):
        assert np.array_equal(getattr(med, name), np.broadcast_to(getattr(rep, name), (1, 5, 17))[0]), name
    assert np.array_equal(med.continuous_part, (rep.full - rep.jumps[:, None])[0])
    lines = rep.to_csv(med).splitlines()
    assert lines[0] == "level,mesh,t,full_sum,jump_sum,continuous_part,zcqv_stat"
    assert len(lines) == 1 + 5 * 17
    last = (repr(float(getattr(med, name)[-1, -1])) for name in ("full", "jumps", "continuous_part", "zcqv"))
    assert lines[-1] == ",".join(["8", repr(2.0**-8), "1.0", *last])


def test_covariation_ladder_cp_zcqv_column_zero(cp_ensemble):
    ladder = RefinementLadder(cp_ensemble.times, 8, 12)
    for n_t in (9, 65):
        rep = covariation_ladder(cp_ensemble, ladder, np.linspace(0, 1, n_t), threshold=np.inf)
        assert np.all(rep.zcqv == 0.0)
        # continuous part = full - jumps is exactly zero once every cell
        # isolates a jump: the stopped and jump sums add the same terms in
        # the same order, and the cells without a jump add 0.0
        assert np.all(rep.full[:, -1] - rep.jumps == 0.0), n_t
        assert np.all(rep.median().continuous_part[-1] == 0.0), n_t


@pytest.mark.parametrize("kw", [dict(kind="brownian"), dict(kind="jump_diffusion", jump_rate=4.0, b="const(-0.25)")])
def test_jump_sums_equal_the_grid_level_stopped_sums_with_s_in_most_cells(kw):
    # threshold 0.0 puts every cell with dX != 0 in S; at the grid's own
    # level the stopped and jump sums add the same squares in the same order
    spec = GeneratorSpec(n_steps=1024, seed=2024, **kw)
    ens = generate(spec, 70)  # row slabs of 32, 32 and 6 rows
    assert calculus.jump_grid(ens, 0.0)[:, 1:].mean() > 0.99
    ladder = RefinementLadder(ens.times, 4, 10)
    t_grid = np.sort(np.concatenate([np.linspace(0.0, 1.0, 65), np.random.default_rng(3).uniform(0.0, 1.0, 16)]))
    sums = covariation_ladder(ens, ladder, t_grid, threshold=0.0)
    assert np.all(sums.full[:, -1] - sums.jumps == 0.0)


def test_independent_brownians_cross_variation_small():
    e1 = generate(GeneratorSpec(kind="brownian", n_steps=4096, seed=31), 64)
    e2 = generate(GeneratorSpec(kind="brownian", n_steps=4096, seed=32), 64)
    vals = covariation(e1, e2, RefinementLadder(e1.times, 12, 12))
    # cross-variation of independent BMs: mean 0, variance ~ t * mesh
    bound = 3.0 * np.sqrt(1.0 * 2.0 ** -12) * 4.0
    assert np.all(np.abs(vals) <= bound)


def test_ucp_exceedance_decreases(brownian_200_l12):
    ladder = RefinementLadder(brownian_200_l12.times, 4, 12)
    t_grid = np.linspace(0.0, 1.0, 33)
    ens = rows_of(brownian_200_l12, 0, 50)
    exc = ucp_exceedance(covariation_ladder(ens, ladder, t_grid).full, eps=0.1)
    assert exc[-1] == 0.0
    assert exc[0] >= exc[-2]


# ---------------------------------------------------------------------------
# bitwise oracle for the block ladder sweep: the per-path sweep it replaced,
# with each path's jump sums a plain running sum in time order


def _reference_stopped(x, partition, t_grid):
    cuts = np.minimum(partition.cut_times, x.horizon)
    xv = value_at(x, cuts)
    dx = np.diff(xv)
    cum = np.concatenate([[0.0], np.cumsum(dx * dx)])
    j = np.searchsorted(partition.cut_times, t_grid, side="right") - 1
    j = np.clip(j, 0, partition.n_cells)
    xt = value_at(x, t_grid)
    boundary = np.where(j < partition.n_cells, (xt - xv[j]) * (xt - xv[j]), 0.0)
    return cum[j] + boundary


def _reference_included(x, partition, s, t_grid):
    cuts = np.minimum(partition.cut_times, x.horizon)
    dx = np.diff(value_at(x, cuts))
    # S time s excludes cell k (1-based) when tau_{k-1} < s <= tau_k
    k = np.searchsorted(partition.cut_times, s, side="left")
    mask = np.ones(partition.n_cells, dtype=bool)
    mask[k[(k >= 1) & (k <= partition.n_cells)] - 1] = False
    cum = np.concatenate([[0.0], np.cumsum(np.where(mask, dx * dx, 0.0))])
    return cum[np.searchsorted(partition.cut_times[1:], t_grid, side="left")]


def _reference_jump_sums(x, s, t_grid):
    """Sum of (dX_s)^2 over the times s <= t of the sorted s, for each t: the
    plain running sum, in time order, after the last such s."""
    d = value_at(x, s) - left_limit(x, s)
    run = [0.0]
    for term in (d * d).tolist():
        run.append(run[-1] + term)
    return np.asarray(run)[np.searchsorted(s, t_grid, side="right")]


def _reference_ladder(x, ladder, t_grid, threshold):
    """(full, jumps, continuous_part, zcqv) of one path, (n_levels, n_t) each."""
    s = jump_times(x, threshold)
    n_l, n_t = len(ladder), t_grid.size
    full = np.empty((n_l, n_t))
    zc = np.empty((n_l, n_t))
    jumps = np.empty((n_l, n_t))
    jump_row = _reference_jump_sums(x, s, t_grid)
    for i, part in enumerate(ladder):
        full[i] = _reference_stopped(x, part, t_grid)
        zc[i] = _reference_included(x, part, s, t_grid)
        jumps[i] = jump_row
    return full, jumps, full - jumps, zc


def _reference_ucp(fulls, eps):
    out = []
    for i in range(fulls[0].shape[0]):
        count = sum(1 for f in fulls if np.max(np.abs(f[i] - f[-1])) > eps)
        out.append(count / len(fulls))
    return out


ORACLE_CASES = {
    "brownian": (dict(kind="brownian"), np.inf),
    "jump_diffusion": (dict(kind="jump_diffusion", jump_rate=20.0, sigma="abs_shift(0.5, 0.5)"), 0.1),
    "compound_poisson": (dict(kind="compound_poisson", jump_rate=30.0), np.inf),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_covariation_ladder_matches_per_path_reference(name):
    kw, threshold = ORACLE_CASES[name]
    spec = GeneratorSpec(n_steps=1024, seed=2024, **kw)
    times = spec.grid()
    ladder = RefinementLadder(times, 0, 10)
    rng = np.random.default_rng(7)
    t_grid = np.sort(np.concatenate([np.linspace(0.0, 1.0, 33), rng.uniform(0.0, 1.0, 16), times[[3, 301]]]))
    # blocks of 64, 64 and 2 rows; each 64-row block spans two row slabs
    assert calculus.SLAB_CELLS // 1024 < block_rows(1024) == 64
    sums = CovariationSums.empty(130, ladder, t_grid)
    for lo in range(0, 130, 64):
        hi = min(lo + 64, 130)
        covariation_ladder(generate(spec, hi - lo, lo), ladder, t_grid, threshold=threshold, out=sums.rows(lo, hi))
    ens = generate(spec, 130)
    ref = [_reference_ladder(rows_of(ens, r, r + 1), ladder, t_grid, threshold) for r in range(130)]
    shape = (130, len(ladder), t_grid.size)
    assert sums.full.tobytes() == np.stack([r[0] for r in ref]).tobytes()
    assert sums.jumps.shape == (130, t_grid.size)
    assert np.broadcast_to(sums.jumps[:, None], shape).tobytes() == np.stack([r[1] for r in ref]).tobytes()
    assert sums.zcqv.tobytes() == np.stack([r[3] for r in ref]).tobytes()
    # the medians, a level at a time and the jumps' once, against numpy's
    # median of the reference stacks
    med = sums.median()
    for k, stat in enumerate(("full", "jumps", "continuous_part", "zcqv")):
        want = np.median(np.stack([r[k] for r in ref]), axis=0)
        assert getattr(med, stat).tobytes() == want.tobytes(), stat
    if threshold < np.inf:
        assert np.any(sums.jumps != 0.0) and np.any(sums.zcqv != sums.full)
    for eps in (0.01, 0.1):
        assert ucp_exceedance(sums.full, eps) == _reference_ucp([r[0] for r in ref], eps)


def test_covariation_ladder_refuses_a_ladder_of_another_grid(brownian_200_l12):
    ens = rows_of(brownian_200_l12, 0, 2)
    other = RefinementLadder(np.arange(2049) / 2048.0, 4, 6)
    with pytest.raises(ValueError, match="grid of 2048 steps, values on a grid of 4096"):
        covariation_ladder(ens, other, np.linspace(0.0, 1.0, 5))


def test_zcqv_ladder_refuses_a_ladder_of_another_grid(brownian_200_l12):
    ens = rows_of(brownian_200_l12, 0, 2)
    other = RefinementLadder(np.arange(2049) / 2048.0, 4, 6)
    with pytest.raises(ValueError, match="grid of 2048 steps, values on a grid of 4096"):
        zcqv_ladder(ens.values, other, 1.0)


def test_covariation_ladder_refuses_out_of_another_shape(brownian_200_l12):
    ens = rows_of(brownian_200_l12, 0, 2)
    ladder = RefinementLadder(ens.times, 4, 6)
    t_grid = np.linspace(0.0, 1.0, 5)
    for n, grid in ((3, t_grid), (2, t_grid[:4])):
        with pytest.raises(ValueError, match="out holds"):
            covariation_ladder(ens, ladder, t_grid, out=CovariationSums.empty(n, ladder, grid))


def test_ladder_sweep_peak_memory_within_three_value_blocks():
    spec = GeneratorSpec(kind="brownian", n_steps=4096, seed=12345)
    times = spec.grid()
    ladder = RefinementLadder(times, 6, 12)
    t_grid = np.linspace(0.0, 1.0, 65)
    # a one-row run first, so lazily built module state is not counted
    warm = generate(spec, 1)
    covariation_ladder(warm, ladder, t_grid, threshold=0.05)
    tracemalloc.start()
    try:
        ens = generate(spec, 64)
        rep = covariation_ladder(ens, ladder, t_grid, threshold=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.full.shape == (64, 7, 65)
    assert peak <= 3 * ens.values.nbytes


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


def _with_warnings(stat):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = stat()
    return out.shape, out.tobytes(), [(w.category, str(w.message)) for w in caught]


def test_order_statistics_match_numpy_bitwise():
    # columns: signed zeros and infinities, all -0.0, all NaN, one NaN,
    # +inf and -inf, a mix of +-0.0, and normals; q = 90 is the suites' p90
    for n in range(1, 301):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, 8))
        a[:, 0] = rng.choice([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0], size=n)
        a[:, 1] = -0.0
        a[:, 2] = np.nan
        a[0, 3] = np.nan
        a[:, 4] = np.inf
        a[:, 5] = -np.inf
        a[:, 6] = rng.choice([0.0, -0.0], size=n)
        for q in (90, 0, 50, 100):
            assert _with_warnings(lambda: path_percentile(a, q)) == _with_warnings(
                lambda: np.percentile(a, q, axis=0, keepdims=True)
            ), (n, q)
        assert _with_warnings(lambda: path_median(a)) == _with_warnings(lambda: np.median(a, axis=0, keepdims=True)), n
        # one column, as the suites' kink-mass median takes it
        col = a[:, 0].copy()
        assert _with_warnings(lambda: path_median(col)[0]) == _with_warnings(lambda: np.median(col)), n
