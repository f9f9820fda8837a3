import contextlib

import numpy as np
import pytest

from qvlab.calculus import zcqv_ladder, zcqv_statistic
from qvlab.decomposition import (
    SuiteConfig,
    decompose,
    decompose_block,
    run_decompose,
    run_suite,
    summarize_zcqv,
    verify_zcqv,
)
from qvlab.errors import NonFiniteError
from qvlab.functions import builtin_library, make_function
from qvlab.generators import GeneratorSpec, generate, make_path
from qvlab.partitions import ExclusionSet, Partition, RefinementLadder, dyadic_partition

from conftest import toy_path


def grid_partition(path):
    return Partition(cut_times=path.times)


def test_identity_function_gives_constant_v():
    f = make_function("identity")
    rng = np.random.default_rng(1)
    p = toy_path(np.arange(33) / 32.0, np.cumsum(np.concatenate([[1.5], rng.standard_normal(32) * 0.1])))
    res = decompose(f, p, grid_partition(p))
    assert np.allclose(res.v_path.values, 1.5, atol=1e-12)


def test_square_on_drift_path_closed_form():
    # X_t = t on a dyadic grid: V_1 = 1 - sum 2 tau_{k-1} dt = 2^-L, exactly
    # (dyadic arithmetic stays exact in binary floating point)
    for level in (4, 6, 8):
        n = 2**level
        spec = GeneratorSpec(kind="euler_sde", n_steps=n, sigma="const(0.0)", b="const(1.0)", seed=0)
        p = make_path(spec, 0)
        res = decompose(make_function("square"), p, grid_partition(p))
        assert res.v_path.values[-1] == 2.0 ** -level


def test_reconstruction_to_roundoff():
    f = make_function("abs")
    spec = GeneratorSpec(kind="brownian", n_steps=512, seed=3)
    p = make_path(spec, 0)
    res = decompose(f, p, grid_partition(p))
    # V := f - integral, so re-adding costs at most one rounding per entry
    scale = float(np.max(np.abs(res.f_path.values)) + np.max(np.abs(res.integral_path.values)))
    assert res.reconstruction_error() <= 4.0 * np.finfo(float).eps * max(1.0, scale)
    assert res.f_path.values[0] == res.integral_path.values[0] + res.v_path.values[0]


def test_tanaka_v_is_nondecreasing_and_mean_matches_oracle(brownian_200_l12):
    # E[V_1] = E|W_1| = sqrt(2/pi) exactly at every resolution (the Ito-sum
    # error has zero mean); V is the discrete local time, nondecreasing
    f = make_function("abs")
    finals = []
    for p in list(brownian_200_l12)[:200]:
        res = decompose(f, p, grid_partition(p))
        assert np.all(np.diff(res.v_path.values) >= -1e-15)
        finals.append(res.v_path.values[-1])
    target = np.sqrt(2.0 / np.pi)
    tol = 4.0 * 0.7 / np.sqrt(len(finals))
    assert abs(np.mean(finals) - target) <= tol


def test_square_on_brownian_tracks_qv(brownian_200_l12):
    # Ito's lemma: V_1 = realized variance of the path, so its median over
    # the ensemble sits within 0.05 of t = 1 at level 12
    f = make_function("square")
    finals = []
    for p in list(brownian_200_l12)[:200]:
        res = decompose(f, p, grid_partition(p))
        finals.append(res.v_path.values[-1])
    assert abs(np.median(finals) - 1.0) <= 0.05


def test_kink_qv_mass_statistically_zero(brownian_200_l12):
    f = make_function("abs")
    masses = []
    for p in list(brownian_200_l12)[:50]:
        res = decompose(f, p, grid_partition(p))
        masses.append(res.kink_qv_mass)
    # a Brownian grid path almost surely never revisits 0.0 exactly; only the
    # x0 = 0 start can sit on the kink, contributing at most one (dX)^2 cell
    assert np.median(masses) <= 2.0 ** -12 * 4.0


def test_assumptions_recorded():
    p = make_path(GeneratorSpec(kind="brownian", n_steps=64, seed=5), 0)
    res = decompose(make_function("abs"), p, grid_partition(p))
    assert res.assumptions.startswith("certified: locally Lipschitz")
    res2 = decompose(make_function("moving_kink(k_jump=0.5)"), p, grid_partition(p))
    assert res2.assumptions.startswith("certified: one-sided")


def test_exclusion_times_include_function_time_jumps():
    p = make_path(GeneratorSpec(kind="brownian", n_steps=64, seed=5), 0)
    res = decompose(make_function("moving_kink(k_jump=0.5)"), p, grid_partition(p))
    assert 0.5 in res.exclusion_times


def test_integrand_uses_left_limit_at_marked_jumps():
    # pure-jump path: eta must see the pre-jump state
    p = toy_path([0, 0.5, 1.0], [1.0, 4.0, 4.0], [False, True, False])
    f = make_function("square")
    res = decompose(f, p, grid_partition(p))
    # eta at tau_1 = 0.5 is 2 * X_{0.5-} = 2, not 2 * 4
    integral = res.integral_path.values
    assert integral[1] == 2.0 * 1.0 * 3.0  # eta_0 * (X_0.5 - X_0)
    assert integral[2] == integral[1]  # flat afterwards


def test_verify_zcqv_constant_passes():
    v = toy_path(np.arange(65) / 64.0, np.full(65, 2.0))
    ladder = RefinementLadder.dyadic(1.0, 2, 6, grid_times=v.times)
    verdict = verify_zcqv(v, ladder, None, 1.0)
    assert verdict.passed is True
    assert all(m == 0.0 for m in verdict.median_stat)


def test_verify_zcqv_brownian_fails(brownian_200_l12):
    paths = list(brownian_200_l12)[:50]
    ladder = RefinementLadder.dyadic(1.0, 6, 12, grid_times=paths[0].times)
    verdict = verify_zcqv(paths, ladder, None, 1.0)
    assert verdict.passed is False
    assert all(m > 0.5 for m in verdict.median_stat)  # flat near t = 1
    assert abs(verdict.slope) < 0.1


def test_verify_zcqv_inconclusive_below_three_levels():
    v = toy_path(np.arange(5) / 4.0, np.zeros(5))
    ladder = RefinementLadder.dyadic(1.0, 1, 2, grid_times=v.times)
    verdict = verify_zcqv(v, ladder, None, 1.0)
    assert verdict.passed is None
    assert "inconclusive" in verdict.status


@pytest.mark.parametrize("n_sets", [1, 4])
def test_verify_zcqv_rejects_misaligned_exclusions(brownian_200_l12, n_sets):
    # zip would stop at the shorter sequence: paths without a set would leave
    # their rows of the statistics array unwritten
    paths = list(brownian_200_l12)[:3]
    ladder = RefinementLadder.dyadic(1.0, 2, 6, grid_times=paths[0].times)
    with pytest.raises(ValueError, match="exclusions holds"):
        verify_zcqv(paths, ladder, [ExclusionSet.empty()] * n_sets, 1.0)


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
    cfg = SuiteConfig(generator=GeneratorSpec(n_steps=4096, seed=12345), n_paths=100)
    tanaka = run_suite("tanaka", cfg)
    assert 0.3 <= tanaka.verdict.slope <= 0.7
    ratio = tanaka.verdict.median_stat[-1] / tanaka.verdict.median_stat[0]
    assert ratio <= 0.3

    control = run_suite("negative_control", cfg)
    assert control.ok  # expected-fail suite: verdict fails, suite passes
    assert abs(control.verdict.slope) < 0.1


def test_moving_kink_suite_excludes_time_jump():
    cfg = SuiteConfig(generator=GeneratorSpec(n_steps=4096, seed=99), n_paths=60)
    res = run_suite("moving_kink", cfg)
    # with the t = 0.5 cell excluded the statistic decays rather than
    # flattening at the O(1) squared jump of V
    assert res.verdict.median_stat[-1] < 0.5 * res.verdict.median_stat[0]
    assert res.verdict.slope > 0.2


def test_cross_variation_and_sum_suites_exact_zero():
    cfg = SuiteConfig(generator=GeneratorSpec(n_steps=4096, seed=31415), n_paths=40)
    cross = run_suite("cross_variation", cfg)
    assert cross.ok and all(m == 0.0 for m in cross.verdict.median_stat)
    both = run_suite("zcqv_sum", cfg)
    assert both.ok and all(m == 0.0 for m in both.verdict.median_stat)


def test_refinement_consistency_of_integral(brownian_200_l12):
    # restriction of the finer integral to coarser cut times drifts from the
    # coarser integral by an amount that shrinks with mesh
    f = make_function("abs")
    gaps = {8: [], 10: []}
    for p in list(brownian_200_l12)[:40]:
        fine = decompose(f, p, grid_partition(p)).integral_path
        for level in gaps:
            part = dyadic_partition(1.0, level)
            coarse = decompose(f, p, part).integral_path
            at_cuts = fine.eval_many(coarse.times)
            gaps[level].append(float(np.max(np.abs(at_cuts - coarse.values))))
    assert np.median(gaps[10]) < np.median(gaps[8])


def test_workers_do_not_change_results():
    cfg1 = SuiteConfig(generator=GeneratorSpec(n_steps=1024, seed=8), n_paths=80,
                       l_min=4, l_max=10, workers=1)
    cfg4 = SuiteConfig(generator=GeneratorSpec(n_steps=1024, seed=8), n_paths=80,
                       l_min=4, l_max=10, workers=4)
    a = run_suite("tanaka", cfg1)
    b = run_suite("tanaka", cfg4)
    assert a.verdict == b.verdict


def test_moving_kink_jump_suite_same_verdict_for_any_worker_count():
    # 130 paths span three generate blocks (64, 64, 2) and three pool chunks
    cfgs = [
        SuiteConfig(generator=GeneratorSpec(n_steps=1024, seed=4242), n_paths=130,
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


@pytest.mark.parametrize("name", sorted(builtin_library()))
@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda s: s.kind)
def test_block_decomposition_rows_equal_one_path_decompose(spec, name):
    # more steps than one slab of the kernel, so the Kahan state and the
    # slab-wise f, eta and states cross slab boundaries
    f = make_function(name)
    ens = generate(spec, 5)
    v, kink = decompose_block(f, ens)
    for r, path in enumerate(ens):
        res = decompose(f, path, grid_partition(path))
        assert _same_bits(v[r], res.v_path.values)
        assert _same_bits(kink[r], res.kink_qv_mass)


@pytest.mark.parametrize("spec", BLOCK_SPECS, ids=lambda s: s.kind)
def test_zcqv_ladder_rows_equal_one_path_statistic(spec):
    # dyadic cuts off the 1100- and 600-step grids are read as eval_many reads them
    ens = generate(spec, 6)
    ladder = RefinementLadder.dyadic(spec.horizon, 2, 6)
    sets = [ExclusionSet(times=np.concatenate([p.jump_times(np.inf), [0.5, 0.0]])) for p in ens]
    rows = np.repeat(np.arange(len(ens)), [len(s) for s in sets])
    times = np.concatenate([s.times for s in sets])
    for t in (spec.horizon, 0.7):
        stats = zcqv_ladder(ens.values, ens.times, ladder, t, rows, times)
        for r, (path, s) in enumerate(zip(ens, sets)):
            for i, part in enumerate(ladder):
                assert _same_bits(stats[r, i], zcqv_statistic(path, part, s, t))


def test_verify_zcqv_accepts_an_ensemble_and_mixed_grids(brownian_200_l12):
    paths = list(brownian_200_l12)[:20]
    ladder = RefinementLadder.dyadic(1.0, 4, 8, grid_times=paths[0].times)
    assert verify_zcqv(generate(GeneratorSpec(kind="brownian", n_steps=4096, seed=12345), 20),
                       ladder, None, 1.0) == verify_zcqv(paths, ladder, None, 1.0)
    # V paths of decompose live on their partitions' cuts, which differ here
    f = make_function("abs")
    vs = [decompose(f, paths[0], grid_partition(paths[0])).v_path,
          decompose(f, paths[1], dyadic_partition(1.0, 6)).v_path]
    assert len(vs[0].times) != len(vs[1].times)
    stats = np.array([[zcqv_statistic(v, part, ExclusionSet.empty(), 1.0) for part in ladder] for v in vs])
    assert verify_zcqv(vs, ladder, None, 1.0) == summarize_zcqv(stats, tuple(range(len(ladder))), ladder.meshes, 0.1)


# f = x^2 overflows at workers=1 in this process; at workers=2 in a forked
# worker, which inherits the test's warning filters
@pytest.mark.parametrize(
    "workers",
    [1, pytest.param(2, marks=pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning"))],
)
def test_non_finite_v_names_the_seed_and_path(workers):
    # jumps of size ~1e200 make f = x^2 overflow; with this seed the first
    # such path is in the second block of 64
    spec = GeneratorSpec(kind="compound_poisson", n_steps=64, jump_rate=0.01,
                         jump_law="normal(0.0, 1e200)", seed=7)
    first_bad = next(i for i in range(130) if np.max(np.abs(make_path(spec, i).values)) > 1.4e154)
    assert first_bad >= 64
    cfg = SuiteConfig(generator=spec, function="square", n_paths=130, l_min=2, l_max=5,
                      workers=workers)
    overflow = pytest.warns(RuntimeWarning, match="overflow") if workers == 1 else contextlib.nullcontext()
    with overflow, pytest.raises(NonFiniteError, match=rf"non-finite V at \(seed=7, path={first_bad}\)"):
        run_decompose(cfg)
