import contextlib
import pickle

import numpy as np
import pytest

from qvlab import _kernels, calculus, cli
from qvlab.calculus import jump_grid, zcqv_ladder
from qvlab.config import ExperimentConfig
from qvlab.decomposition import (
    _common_columns,
    decompose_block,
    run_decompose,
    run_suite,
    suites,
    summarize_zcqv,
)
from qvlab.errors import NonFiniteError
from qvlab.functions import _REGISTRY, make_function
from qvlab.generators import GeneratorSpec, generate, make_path
from qvlab.partitions import RefinementLadder

from conftest import rows_of, toy_ensemble


def test_identity_function_gives_constant_v():
    f = make_function("identity")
    rng = np.random.default_rng(1)
    ens = toy_ensemble(np.arange(33) / 32.0, np.cumsum(np.concatenate([[1.5], rng.standard_normal(32) * 0.1])))
    v = decompose_block(f, ens)
    assert np.allclose(v, 1.5, atol=1e-12)


def test_square_on_drift_path_closed_form():
    # X_t = t on a dyadic grid: V_1 = 1 - sum 2 tau_{k-1} dt = 2^-L, exactly
    # (dyadic arithmetic stays exact in binary floating point)
    for level in (4, 6, 8):
        n = 2**level
        spec = GeneratorSpec(kind="euler_sde", n_steps=n, sigma="const(0.0)", b="const(1.0)", seed=0)
        v = decompose_block(make_function("square"), generate(spec, 1))
        assert v[0, -1] == 2.0 ** -level


def test_tanaka_v_is_nondecreasing_and_mean_matches_oracle(brownian_200_l12):
    # E[V_1] = E|W_1| = sqrt(2/pi) exactly at every resolution (the Ito-sum
    # error has zero mean); V is the discrete local time, nondecreasing
    v = decompose_block(make_function("abs"), brownian_200_l12)
    assert np.all(np.diff(v, axis=1) >= -1e-15)
    target = np.sqrt(2.0 / np.pi)
    tol = 4.0 * 0.7 / np.sqrt(len(v))
    assert abs(np.mean(v[:, -1]) - target) <= tol


def test_square_on_brownian_tracks_qv(brownian_200_l12):
    # Ito's lemma: V_1 = realized variance of the path, so its median over
    # the ensemble sits within 0.05 of t = 1 at level 12
    v = decompose_block(make_function("square"), brownian_200_l12)
    assert abs(np.median(v[:, -1]) - 1.0) <= 0.05


@pytest.mark.parametrize("name", cli.SUITES)
def test_each_suite_block_makes_one_ladder_pass(name, monkeypatch):
    # 70 paths at 256 steps are two blocks, of 64 and 6 paths
    rows = []
    ladder = calculus.zcqv_ladder
    monkeypatch.setattr(calculus, "zcqv_ladder", lambda x, *a, **kw: rows.append(len(x)) or ladder(x, *a, **kw))
    run_suite(name, ExperimentConfig(generator={"n_steps": 256}, n_paths=70, l_min=2, l_max=6))
    assert rows == [64, 6]


def test_integrand_uses_left_limit_at_marked_jumps():
    # pure-jump path: eta must see the pre-jump state
    ens = toy_ensemble([0, 0.5, 1.0], [1.0, 4.0, 4.0], [False, True, False])
    v = decompose_block(make_function("square"), ens)
    # eta at tau_1 = 0.5 is 2 * X_{0.5-} = 2, not 2 * 4, so the Ito sum is
    # 2 * 1 * 3 = 6 from then on and V = X^2 - 6 there
    assert v.tolist() == [[1.0, 10.0, 10.0]]


def _verdict(values, times, ladder):
    """The verdict on the included-cell statistic of every row at t = 1, S empty."""
    stats = zcqv_ladder(values, ladder, 1.0)
    return summarize_zcqv(stats, tuple(range(len(ladder))), ladder.meshes, 0.1)


def test_zcqv_verdict_constant_passes():
    times = np.arange(65) / 64.0
    verdict = _verdict(np.full((1, 65), 2.0), times, RefinementLadder(times, 2, 6))
    assert verdict.passed is True
    assert all(m == 0.0 for m in verdict.median_stat)


def test_zcqv_verdict_brownian_fails(brownian_200_l12):
    times = brownian_200_l12.times
    ladder = RefinementLadder(times, 6, 12)
    verdict = _verdict(brownian_200_l12.values[:50], times, ladder)
    assert verdict.passed is False
    assert all(m > 0.5 for m in verdict.median_stat)  # flat near t = 1
    assert abs(verdict.slope) < 0.1


def test_zcqv_verdict_inconclusive_below_three_levels():
    times = np.arange(5) / 4.0
    verdict = _verdict(np.zeros((1, 5)), times, RefinementLadder(times, 1, 2))
    assert verdict.passed is None
    assert "inconclusive" in verdict.status


def test_summarize_zcqv_nonstrict_zero_rule():
    stats = np.zeros((10, 4))
    verdict = summarize_zcqv(stats, (1, 2, 3, 4), (0.5, 0.25, 0.125, 0.0625), 0.1)
    assert verdict.passed is True
    assert verdict.slope is None


def test_tanaka_suite_demonstrates_theorem_decay():
    """Honest-threshold demonstration: the decay slope of the statistic is
    ~ sqrt(mesh) for the nondifferentiable decomposition and ~ flat for the
    Brownian negative control.  (The spec's ratio-0.1 acceptance figure over
    levels 6..12 is sharper than the true sqrt decay allows; see the
    acceptance suite where that criterion is asserted literally.)"""
    cfg = ExperimentConfig(generator={"n_steps": 4096}, seed=12345, n_paths=100)
    tanaka = run_suite("tanaka", cfg)
    assert 0.3 <= tanaka.verdict.slope <= 0.7
    ratio = tanaka.verdict.median_stat[-1] / tanaka.verdict.median_stat[0]
    assert ratio <= 0.3

    control = run_suite("negative_control", cfg)
    assert control.ok  # expected-fail suite: verdict fails, suite passes
    assert abs(control.verdict.slope) < 0.1


def test_moving_kink_suite_excludes_time_jump():
    cfg = ExperimentConfig(generator={"n_steps": 4096}, seed=99, n_paths=60)
    res = run_suite("moving_kink", cfg)
    # with the t = 0.5 cell excluded the statistic decays rather than
    # flattening at the O(1) squared jump of V
    assert res.verdict.median_stat[-1] < 0.5 * res.verdict.median_stat[0]
    assert res.verdict.slope > 0.2


def test_cross_variation_and_sum_suites_exact_zero():
    cfg = ExperimentConfig(generator={"n_steps": 4096}, seed=31415, n_paths=40)
    cross = run_suite("cross_variation", cfg)
    assert cross.ok and all(m == 0.0 for m in cross.verdict.median_stat)
    both = run_suite("zcqv_sum", cfg)
    assert both.ok and all(m == 0.0 for m in both.verdict.median_stat)


def test_workers_do_not_change_results():
    cfg1 = ExperimentConfig(generator={"n_steps": 1024}, seed=8, n_paths=80,
                            l_min=4, l_max=10, workers=1)
    cfg4 = ExperimentConfig(generator={"n_steps": 1024}, seed=8, n_paths=80,
                            l_min=4, l_max=10, workers=4)
    a = run_suite("tanaka", cfg1)
    b = run_suite("tanaka", cfg4)
    assert a.verdict == b.verdict


def test_moving_kink_jump_suite_same_verdict_for_any_worker_count():
    # 130 paths span three blocks (64, 64, 2), one pool task each
    cfgs = [
        ExperimentConfig(generator={"n_steps": 1024}, seed=4242, n_paths=130,
                         l_min=4, l_max=10, workers=w)
        for w in (1, 2)
    ]
    a, b = (run_suite("moving_kink_jump", cfg) for cfg in cfgs)
    assert a.details["generator"] == "jump_diffusion"
    assert a.verdict == b.verdict
    assert a.details == b.details



def _same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


BLOCK_SPECS = [
    GeneratorSpec(kind="brownian", n_steps=1100, x0=0.25, seed=21),
    GeneratorSpec(kind="jump_diffusion", n_steps=600, jump_rate=4.0, seed=22),
    GeneratorSpec(kind="compound_poisson", n_steps=256, jump_rate=5.0, seed=23),
]


@pytest.mark.parametrize("name", sorted(_REGISTRY))
@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda s: s.kind)
def test_block_decomposition_rows_equal_one_path_decompose(spec, name, monkeypatch):
    # slabs of 1 row (1100 and 600 steps) or 4 rows (256 steps), so the
    # row-slab terms, f, eta and states cross slab boundaries
    monkeypatch.setattr(_kernels, "CELLS", 1024)
    f = make_function(name)
    ens = generate(spec, 5)
    v = decompose_block(f, ens)
    for r in range(len(ens)):
        assert _same_bits(v[r], decompose_block(f, rows_of(ens, r, r + 1))[0])


# the block specs on grids that 2^6 divides
LADDER_SPECS = [spec._replace(n_steps=spec.n_steps // 64 * 64) for spec in BLOCK_SPECS]


@pytest.mark.parametrize("spec", LADDER_SPECS, ids=lambda s: s.kind)
def test_zcqv_ladder_rows_equal_one_path_statistic(spec):
    ens = generate(spec, 6)
    ladder = RefinementLadder(ens.times, 2, 6)
    s = jump_grid(ens, np.inf) | _common_columns(ens.times, [0.5, 0.0])
    for t in (spec.horizon, 0.7):
        stats = zcqv_ladder(ens.values, ladder, t, s)
        for r in range(len(ens)):
            alone = zcqv_ladder(ens.values[r : r + 1], ladder, t, s[r : r + 1])
            assert _same_bits(stats[r], alone[0])


# f = x^2 overflows at workers=1 in this process; at workers=2 in a forked
# worker, which inherits the test's warning filters
@pytest.mark.parametrize(
    "workers",
    [1, pytest.param(2, marks=pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning"))],
)
def test_non_finite_v_names_the_seed_and_path(workers):
    # jumps of size ~1e200 make f = x^2 overflow; with this seed the first
    # such path is in the second block of 64
    cfg = ExperimentConfig(generator={"kind": "compound_poisson", "n_steps": 64, "jump_rate": 0.01,
                                      "jump_law": "normal(0.0, 1e200)"},
                           seed=7, function="square", n_paths=130, l_min=2, l_max=5, workers=workers)
    spec = cfg.generator_spec()
    first_bad = next(i for i in range(130) if np.max(np.abs(make_path(spec, i).values)) > 1.4e154)
    assert first_bad >= 64
    overflow = pytest.warns(RuntimeWarning, match="overflow") if workers == 1 else contextlib.nullcontext()
    with overflow, pytest.raises(NonFiniteError, match=rf"non-finite V at \(seed=7, path={first_bad}\)"):
        run_decompose(cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_kernel_overflow_names_the_seed_and_path(workers):
    # one jump of about 1.7e307 leaves the path finite, but the kernel's
    # sigma for its Ito term, 2^7 times the term for a 64-cell row, is past
    # the largest double: the kernel raises for a row of the second block,
    # and the suite names the path
    cfg = ExperimentConfig(generator={"kind": "compound_poisson", "n_steps": 64, "jump_rate": 0.02,
                                      "jump_law": "normal(0.0, 1e307)"},
                           seed=7, function="abs", n_paths=130, l_min=2, l_max=5, workers=workers)
    paths = [make_path(cfg.generator_spec(), i) for i in range(130)]
    big = [i for i, p in enumerate(paths) if np.max(np.abs(p.values)) >= 2.0 ** (1024 - 7)]
    assert big and big[0] >= 64 and all(np.isfinite(p.values).all() for p in paths)
    with pytest.raises(NonFiniteError, match=rf"too large to sum exactly at \(seed=7, path={big[0]}\)") as err:
        run_decompose(cfg)
    assert err.value.row is None


@pytest.mark.parametrize(
    "generator",
    [{}, {"kind": "jump_diffusion", "jump_rate": 5.0}, {"n_steps": 1024}, {"horizon": 0.1}],
    ids=["brownian", "jump_diffusion", "1024 steps", "horizon 0.1"],
)
def test_every_suite_draws_its_specs_on_one_grid(generator):
    # a pool task measures every spec's block on the first spec's ladder,
    # and the pool pickles each record
    table = suites(ExperimentConfig(generator=generator))
    assert tuple(table) == cli.SUITES
    for name, suite in table.items():
        first = suite.specs[0]
        assert all((s.n_steps, s.horizon) == (first.n_steps, first.horizon) for s in suite.specs), name
        assert pickle.dumps(pickle.loads(pickle.dumps(suite))) == pickle.dumps(suite), name
