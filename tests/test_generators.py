import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from qvlab.errors import ConfigurationError, GenerationError
from qvlab.generators import (
    GeneratorSpec,
    _draw_jump_cells,
    _euler_block,
    _row_streams,
    build_transform,
    gen_lamperti_dirichlet,
    generate,
    iter_blocks,
    make_coefficient,
    make_jump_law,
    make_path,
    parse_expression,
    path_rng,
)
from qvlab.paths import PathEnsemble


def test_parse_expression():
    assert parse_expression("const(1.0)") == ("const", [1.0], {})
    assert parse_expression("step(1, 2, 0)") == ("step", [1.0, 2.0, 0.0], {})
    name, args, kwargs = parse_expression("moving_kink(k_jump=0.5)")
    assert name == "moving_kink" and kwargs == {"k_jump": 0.5}
    with pytest.raises(ConfigurationError):
        parse_expression("not valid (")


def test_coefficient_registry():
    step = make_coefficient("step(1, 2, 0)")
    assert step(0.0, -1.0) == 1.0 and step(0.0, 0.0) == 1.0 and step(0.0, 0.5) == 2.0
    lin = make_coefficient("linear(1.0, 2.0)")
    assert lin(0.0, 3.0) == 7.0
    with pytest.raises(ConfigurationError):
        make_coefficient("nope(1)")


def test_brownian_initial_condition_and_determinism():
    spec = GeneratorSpec(kind="brownian", n_steps=16, x0=2.5, seed=42)
    a = generate(spec, 3)
    b = generate(spec, 3)
    for p, q in zip(a, b):
        assert p.values[0] == 2.5
        assert np.array_equal(p.values, q.values)  # bit-identical replay
        assert not p.jump_marks.any()


def test_path_replay_matches_ensemble():
    spec = GeneratorSpec(kind="brownian", n_steps=64, seed=9)
    ens = generate(spec, 5)
    assert np.array_equal(make_path(spec, 3).values, ens[3].values)


def test_brownian_increment_law():
    # law of X_1 - x0 at one step: mean within 4 standard errors, variance 10%
    spec = GeneratorSpec(kind="brownian", n_steps=1, horizon=1.0, x0=1.0, seed=5)
    ens = generate(spec, 10**4)
    term = np.asarray([p.values[-1] - 1.0 for p in ens])
    assert abs(term.mean()) <= 4.0 / np.sqrt(10**4)
    assert abs(term.var() - 1.0) <= 0.1


def test_brownian_kurtosis_sanity():
    spec = GeneratorSpec(kind="brownian", n_steps=4096, seed=11)
    ens = generate(spec, 25)
    incs = np.concatenate([np.diff(p.values) for p in ens]) / np.sqrt(1.0 / 4096)
    kurt = stats.kurtosis(incs, fisher=False)
    assert abs(kurt - 3.0) <= 0.2


def test_compound_poisson_requires_positive_rate():
    with pytest.raises(ConfigurationError):
        GeneratorSpec(kind="compound_poisson", jump_rate=0.0).validate()


def test_compound_poisson_grid_too_coarse():
    with pytest.raises(ConfigurationError, match="finer grid"):
        GeneratorSpec(kind="compound_poisson", n_steps=4, jump_rate=3.0).validate()


def test_compound_poisson_single_event_shape():
    spec = GeneratorSpec(kind="compound_poisson", n_steps=256, jump_rate=0.5, seed=1,
                         jump_law="const(2.0)")
    for i in range(20):
        p = make_path(spec, i)
        jumps = p.times[p.jump_marks]
        if jumps.size == 1:
            t1 = jumps[0]
            expect = np.where(p.times >= t1, 2.0, 0.0)
            assert np.array_equal(p.values, expect)
            break
    else:
        pytest.fail("no single-jump path found")


def test_compound_poisson_mean_count():
    spec = GeneratorSpec(kind="compound_poisson", n_steps=64, jump_rate=3.0, seed=21)
    counts = [int(make_path(spec, i).jump_marks.sum()) for i in range(10**4)]
    assert abs(np.mean(counts) - 3.0) <= 4.0 * np.sqrt(3.0 / 10**4)


def test_compound_poisson_piecewise_constant_and_marked():
    spec = GeneratorSpec(kind="compound_poisson", n_steps=512, jump_rate=4.0, seed=3)
    p = make_path(spec, 0)
    dx = np.diff(p.values)
    moved = np.flatnonzero(dx != 0.0) + 1
    assert np.all(p.jump_marks[moved])  # every move is a marked jump


def test_euler_degenerate():
    spec = GeneratorSpec(kind="euler_sde", n_steps=32, x0=1.5, sigma="const(0.0)", b="const(0.0)", seed=0)
    p = make_path(spec, 0)
    assert np.all(p.values == 1.5)


def test_euler_pure_drift_exact():
    spec = GeneratorSpec(kind="euler_sde", n_steps=64, x0=2.0, sigma="const(0.0)", b="const(1.0)", seed=0)
    p = make_path(spec, 0)
    assert p.values[-1] == pytest.approx(3.0, abs=1e-12)


def test_euler_unit_sigma_same_seed_is_bitexact():
    pe = make_path(GeneratorSpec(kind="euler_sde", n_steps=256, sigma="const(1.0)", seed=100), 0)
    pb = make_path(GeneratorSpec(kind="brownian", n_steps=256, seed=100), 0)
    assert np.array_equal(pe.values, pb.values)


def test_euler_unit_sigma_matches_brownian_law():
    n = 1000
    e1 = generate(GeneratorSpec(kind="euler_sde", n_steps=1024, sigma="const(1.0)", seed=101), n)
    e2 = generate(GeneratorSpec(kind="brownian", n_steps=1024, seed=201), n)
    a = np.asarray([p.values[-1] for p in e1])
    b = np.asarray([p.values[-1] for p in e2])
    # two-sample KS at 1e3 paths: threshold ~1.63*sqrt(2/n) at 1% level
    d = stats.ks_2samp(a, b).statistic
    assert d <= 1.63 * np.sqrt(2.0 / n)


def test_euler_nonfinite_coefficient_names_point():
    bad = lambda t, x: np.inf
    spec = GeneratorSpec(kind="euler_sde", n_steps=4, sigma=bad, seed=0)
    with pytest.raises(GenerationError, match=r"seed=0, path=0, t=0\.0, x=0\.0"):
        make_path(spec, 0)
    with pytest.raises(GenerationError, match=r"seed=0, path=5, t="):
        make_path(spec, 5)


def _failing_path(exc_info) -> int:
    return int(re.search(r"path=(\d+)", str(exc_info.value)).group(1))


def test_block_failure_replays_on_its_own():
    # sigma blows up once a path leaves (-0.5, 0.5): the block names the
    # first failing row, and make_path on that index fails identically
    sig = lambda t, x: np.where(np.abs(x) < 0.5, 1.0, np.inf)
    spec = GeneratorSpec(kind="jump_diffusion", n_steps=256, jump_rate=3.0, sigma=sig, seed=6)
    with pytest.raises(GenerationError, match=r"seed=6, path=\d+, t=") as block_err:
        generate(spec, 64, start=10)
    index = _failing_path(block_err)
    assert 10 <= index < 74
    with pytest.raises(GenerationError) as replay_err:
        make_path(spec, index)
    assert str(replay_err.value) == str(block_err.value)


def test_jump_placement_failure_names_path():
    # one grid cell and a 0.5 jump rate: some path draws two jumps for it
    spec = GeneratorSpec(kind="compound_poisson", n_steps=1, jump_rate=0.5, seed=3)
    with pytest.raises(GenerationError, match=r"could not place jump .*seed=3, path=\d+") as block_err:
        generate(spec, 64)
    with pytest.raises(GenerationError) as replay_err:
        make_path(spec, _failing_path(block_err))
    assert str(replay_err.value) == str(block_err.value)


def test_jump_diffusion_marks_and_validate():
    spec = GeneratorSpec(kind="jump_diffusion", n_steps=1024, jump_rate=3.0, seed=17)
    p = make_path(spec, 0)
    assert p.jump_marks.sum() >= 0
    assert np.all(np.isfinite(p.values))


def test_lamperti_identity_transform():
    spec = GeneratorSpec(kind="lamperti_dirichlet", n_steps=128, sigma_of_x="const(1.0)",
                         alpha=1.0, seed=4)
    res = gen_lamperti_dirichlet(spec, 2)
    for xp, yp in zip(res.x, res.y):
        assert np.allclose(xp.values, yp.values, atol=1e-9)


def test_lamperti_linear_transform():
    # sigma = c constant: h(x) = c^(-2 alpha) x, so X = c^(2 alpha) Y
    c, alpha = 2.0, 0.5
    spec = GeneratorSpec(kind="lamperti_dirichlet", n_steps=128, sigma_of_x=f"const({c})",
                         alpha=alpha, seed=8)
    res = gen_lamperti_dirichlet(spec, 2)
    scale = c ** (2 * alpha)
    for xp, yp in zip(res.x, res.y):
        assert np.allclose(xp.values, scale * yp.values, atol=1e-7)


def test_lamperti_roundtrip_with_step_sigma():
    # sigma(x) = 1 + 1{x>0}, alpha = 1/2: h piecewise linear with a kink at 0
    spec = GeneratorSpec(kind="lamperti_dirichlet", n_steps=64, sigma_of_x="step(1, 2, 0)",
                         alpha=0.5, seed=15)
    tr = build_transform(spec)
    xs = np.linspace(-3.0, 3.0, 301)
    back = tr.inverse(tr.forward(xs))
    res = float(np.max(np.abs(back - xs)))
    grid_step = float(np.diff(tr.x_tab).max())
    assert res <= 2.0 * grid_step  # quadrature-resolution round trip
    assert np.all(np.diff(tr.h_tab) > 0)


def test_lamperti_inverse_monotone():
    spec = GeneratorSpec(kind="lamperti_dirichlet", n_steps=64, sigma_of_x="abs_shift(0.5, 0.5)",
                         alpha=0.5, seed=2)
    tr = build_transform(spec)
    ys = np.linspace(tr.h_tab[0], tr.h_tab[-1], 500)
    assert np.all(np.diff(tr.inverse(ys)) >= 0)


def test_lamperti_bounded_h_raises():
    # sigma growing linearly with alpha = 1 gives integrable sigma^-2 tails:
    # h is bounded and can never cover the Brownian range
    spec = GeneratorSpec(kind="lamperti_dirichlet", n_steps=64, sigma_of_x="abs_shift(0.5, 0.5)",
                         alpha=1.0, seed=2)
    with pytest.raises(GenerationError, match="bounded"):
        build_transform(spec)


def test_jump_law_means():
    assert make_jump_law("normal(1.5, 2.0)").mean == 1.5
    assert make_jump_law("uniform(-1, 3)").mean == 1.0
    assert make_jump_law("const(4)").mean == 4.0


def test_mean_drift_variation():
    assert GeneratorSpec(kind="brownian").mean_drift_variation(1.0) == 0.0
    cp = GeneratorSpec(kind="compound_poisson", jump_rate=3.0, jump_law="normal(0.0, 1.0)", n_steps=4096)
    assert cp.mean_drift_variation(1.0) == 0.0
    cp2 = GeneratorSpec(kind="compound_poisson", jump_rate=2.0, jump_law="const(1.5)", n_steps=4096)
    assert cp2.mean_drift_variation(2.0) == pytest.approx(6.0)
    drift = GeneratorSpec(kind="euler_sde", b="const(-2.0)")
    assert drift.mean_drift_variation(1.0) == pytest.approx(2.0)
    assert GeneratorSpec(kind="euler_sde", b="linear(0,1)").mean_drift_variation(1.0) is None


def test_invalid_specs_rejected():
    with pytest.raises(ConfigurationError):
        GeneratorSpec(kind="wat").validate()
    with pytest.raises(ConfigurationError):
        GeneratorSpec(n_steps=0).validate()
    with pytest.raises(ConfigurationError):
        GeneratorSpec(horizon=-1.0).validate()
    with pytest.raises(ConfigurationError):
        GeneratorSpec(alpha=1.5).validate()


# ---------------------------------------------------------------------------
# scalar per-path oracle: each path built on its own, one step at a time


def _reference_jump_cells(spec, rng):
    n, dt = spec.n_steps, spec.dt
    count = int(rng.poisson(spec.jump_rate * spec.horizon))
    cells, occupied = [], set()
    for _ in range(count):
        for _attempt in range(1000):
            c = min(max(int(math.ceil(rng.random() * spec.horizon / dt)), 1), n)
            if c not in occupied:
                occupied.add(c)
                cells.append(c)
                break
    cells.sort()
    law = make_jump_law(spec.jump_law)
    jump_at = np.zeros(n + 1)
    for c in cells:
        jump_at[c] = law.sample(rng)
    return jump_at


def _reference_brownian(spec, rng):
    dw = rng.standard_normal(spec.n_steps) * math.sqrt(spec.dt)
    values = np.empty(spec.n_steps + 1)
    values[0] = spec.x0
    values[1:] = spec.x0 + np.cumsum(dw)
    return values, np.zeros(spec.n_steps + 1, dtype=bool)


def _reference_euler(spec, rng):
    sigma, b = make_coefficient(spec.sigma), make_coefficient(spec.b)
    dt = spec.dt
    sqdt = math.sqrt(dt)
    z = rng.standard_normal(spec.n_steps)
    with_jumps = spec.kind == "jump_diffusion"
    jump_at = _reference_jump_cells(spec, rng) if with_jumps else None
    times = spec.grid()
    values = np.empty(spec.n_steps + 1)
    x = spec.x0
    values[0] = x
    for i in range(spec.n_steps):
        s = float(sigma(times[i], x))
        drift = float(b(times[i], x))
        assert math.isfinite(s) and math.isfinite(drift)
        if with_jumps:
            x = x + drift * dt + s * sqdt * z[i] + jump_at[i + 1]
        else:
            x = x + drift * dt + s * sqdt * z[i]
        values[i + 1] = x
    marks = jump_at != 0.0 if with_jumps else np.zeros(spec.n_steps + 1, dtype=bool)
    return values, marks


def _reference_compound_poisson(spec, rng):
    jump_at = _reference_jump_cells(spec, rng)
    values = spec.x0 + np.cumsum(jump_at)
    values[0] = spec.x0
    return values, jump_at != 0.0


def _reference_lamperti(spec, rng):
    transform = build_transform(spec)
    y0 = float(transform.forward(spec.x0))
    y, marks = _reference_brownian(replace(spec, x0=y0), rng)
    return transform.inverse(y), marks


_REFERENCE = {
    "brownian": _reference_brownian,
    "euler_sde": _reference_euler,
    "jump_diffusion": _reference_euler,
    "compound_poisson": _reference_compound_poisson,
    "lamperti_dirichlet": _reference_lamperti,
}

ORACLE_SPECS = {
    "brownian": dict(kind="brownian", x0=0.25),
    "euler_sde": dict(kind="euler_sde", sigma="abs_shift(0.5, 0.5)", b="linear(0.1, -0.5)"),
    "euler_step": dict(kind="euler_sde", sigma="step(1, 2, 0)", b="const(0.3)"),
    # no motion from x0 = -0.0: some Euler steps keep -0.0, which the jump
    # term's + 0.0 would turn into +0.0
    "euler_signed_zero": dict(kind="euler_sde", sigma="const(0.0)", b="const(-0.0)", x0=-0.0),
    "jump_diffusion": dict(kind="jump_diffusion", jump_rate=20.0, sigma="abs_shift(0.5, 0.5)",
                           b="const(0.1)", jump_law="uniform(-1, 3)"),
    "jump_signed_zero": dict(kind="jump_diffusion", jump_rate=3.0, sigma="const(0.0)",
                             b="const(-0.0)", x0=-0.0),
    "compound_poisson": dict(kind="compound_poisson", jump_rate=40.0, x0=-0.0),
    "lamperti_dirichlet": dict(kind="lamperti_dirichlet", sigma_of_x="abs_shift(0.5, 0.5)", alpha=0.5),
}


def _same_bits(path, ref) -> bool:
    values, marks = ref
    return path.values.tobytes() == values.tobytes() and np.array_equal(path.jump_marks, marks)


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_block_generation_matches_scalar_reference(name):
    spec = GeneratorSpec(n_steps=256, seed=2024, **ORACLE_SPECS[name])
    ref = [_REFERENCE[spec.kind](spec, path_rng(spec.seed, i)) for i in range(130)]
    ens = generate(spec, 130)
    assert all(_same_bits(p, r) for p, r in zip(ens, ref))
    # iter_blocks splits at 64 and 128; make_path is a one-row block
    blocks = list(iter_blocks(spec, 0, 130))
    assert [len(b) for b in blocks] == [64, 64, 2]
    rows = [p for b in blocks for p in b]
    assert all(_same_bits(p, r) for p, r in zip(rows, ref, strict=True))
    for i in (0, 63, 64, 129):
        assert _same_bits(make_path(spec, i), ref[i])


def test_signed_zero_specs_tell_the_jump_term_apart():
    # the oracle comparison is bitwise, so it sees whether + 0.0 ran
    def negative_zeros(name):
        ens = generate(GeneratorSpec(n_steps=8, seed=1, **ORACLE_SPECS[name]), 20)
        after_start = np.concatenate([p.values[1:] for p in ens])
        return int(np.sum((after_start == 0.0) & np.signbit(after_start)))

    assert negative_zeros("euler_signed_zero") > 0
    assert negative_zeros("jump_signed_zero") == 0


def test_blocks_are_read_only():
    ens = generate(GeneratorSpec(kind="jump_diffusion", n_steps=64, jump_rate=3.0, seed=2), 3)
    values, marks = ens.values, ens.marks
    assert values.shape == (3, 65) and ens[2].values.base is values
    for arr in (values, marks, ens[1].values, ens[1].jump_marks, ens[1].times):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_generate_peak_memory_within_twice_the_blocks():
    spec = GeneratorSpec(kind="jump_diffusion", n_steps=4096, jump_rate=3.0,
                         sigma="abs_shift(0.5, 0.5)", seed=12345)
    block_bytes = 64 * 4097 * (8 + 1)  # float64 values plus bool marks
    tracemalloc.start()
    try:
        ens = generate(spec, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ens) == 64
    assert peak <= 2 * block_bytes


# ---------------------------------------------------------------------------
# the block loop before the step-major one, kept as the oracle of its errors:
# every row's stream from path_rng, the coefficients checked at every step


def _checked_loop(spec, n, start):
    values = np.empty((n, spec.n_steps + 1))
    jumps = np.zeros_like(values)
    for r, row in enumerate(values):
        rng = path_rng(spec.seed, start + r)
        rng.standard_normal(out=row[1:])
        if spec.kind == "jump_diffusion":
            jumps[r] = _reference_jump_cells(spec, rng)
    sigma, b = make_coefficient(spec.sigma), make_coefficient(spec.b)
    dt = spec.dt
    sqdt = math.sqrt(dt)
    times = spec.grid()
    values[:, 0] = spec.x0
    for i in range(spec.n_steps):
        t = times[i]
        x = values[:, i]
        s = np.asarray(sigma(t, x), dtype=float)
        drift = np.asarray(b(t, x), dtype=float)
        if not (np.isfinite(s).all() and np.isfinite(drift).all()):
            bad = np.broadcast_to(~(np.isfinite(s) & np.isfinite(drift)), x.shape)
            r = int(np.argmax(bad))
            raise GenerationError(
                f"non-finite coefficient at (seed={spec.seed}, path={start + r}, "
                f"t={float(t)!r}, x={float(x[r])!r})"
            )
        step = x + drift * dt + s * sqdt * values[:, i + 1]
        if spec.kind == "jump_diffusion":
            step += jumps[:, i + 1]
        values[:, i + 1] = step
    return values, jumps != 0.0


def _checked_block(spec, n, start):
    values, marks = _checked_loop(spec, n, start)
    return PathEnsemble(times=spec.grid(), values=values, marks=marks)


def _outcome(build):
    """(values, marks) bytes of the built ensembles or (exception type,
    message), and the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            blocks = build()
            result = (b"".join(e.values.tobytes() for e in blocks), b"".join(e.marks.tobytes() for e in blocks))
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _same_outcome_as_checked_loop(spec, n_paths):
    spans = [(lo, min(lo + 64, n_paths)) for lo in range(0, n_paths, 64)]
    got = _outcome(lambda: list(iter_blocks(spec, 0, n_paths)))
    assert got == _outcome(lambda: [_checked_block(spec, hi - lo, lo) for lo, hi in spans])
    # all rows in one block: the first failing row of the block is named
    assert _outcome(lambda: [generate(spec, n_paths)]) == _outcome(lambda: [_checked_block(spec, n_paths, 0)])
    return got


# with these seeds the first non-finite coefficient is at a row >= 1 of the
# second block, at a step > 0
NON_FINITE_AT_ROW_AND_STEP = {
    "euler_sde": dict(kind="euler_sde", seed=0, sigma=lambda t, x: np.where(np.abs(x) < 2.8, 1.0, np.inf)),
    "jump_diffusion": dict(kind="jump_diffusion", seed=5, jump_rate=3.0,
                           b=lambda t, x: np.where(np.abs(x) < 6.0, 0.5, np.nan)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_AT_ROW_AND_STEP))
def test_non_finite_coefficient_error_equals_the_checked_loop(name):
    spec = GeneratorSpec(n_steps=256, **NON_FINITE_AT_ROW_AND_STEP[name])
    (kind, message), warned = _same_outcome_as_checked_loop(spec, 130)
    assert kind is GenerationError and not warned
    path = int(re.search(r"path=(\d+)", message).group(1))
    t = float(re.search(r"t=([^,]+),", message).group(1))
    assert path >= 64 and path % 64 >= 1 and t > 0.0


@pytest.mark.parametrize("kind", ["euler_sde", "jump_diffusion"])
def test_overflow_with_finite_coefficients_keeps_the_checked_loop_values(kind):
    # sigma and b stay finite at x = inf: the values overflow, and the
    # ensemble rejects them
    spec = GeneratorSpec(kind=kind, n_steps=256, x0=1.7e308, sigma="step(1.0, 1.0, 0.0)",
                         b="step(1e308, 1e308, 0.0)", jump_rate=3.0, seed=4)
    (kind_, message), warned = _same_outcome_as_checked_loop(spec, 130)
    assert (kind_, message) == (ValueError, "values must be finite")
    assert (RuntimeWarning, "overflow encountered in add") in warned
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        values, marks = _euler_block(spec, 130, 0)
        want_values, want_marks = _checked_loop(spec, 130, 0)
    assert np.isinf(values[:, -1]).all()
    assert values.tobytes() == want_values.tobytes() and np.array_equal(marks, want_marks)


@pytest.mark.parametrize("kind", ["euler_sde", "jump_diffusion"])
def test_overflow_into_a_non_finite_coefficient_equals_the_checked_loop(kind):
    # const(1.0) is 1.0 + 0.0 * x, NaN one step after x overflows
    spec = GeneratorSpec(kind=kind, n_steps=256, x0=1.7e308, sigma="const(1.0)",
                         b="step(1e308, 1e308, 0.0)", jump_rate=3.0, seed=4)
    (kind_, message), warned = _same_outcome_as_checked_loop(spec, 130)
    assert kind_ is GenerationError and "path=0, " in message and message.endswith("x=inf)")
    assert (RuntimeWarning, "overflow encountered in add") in warned


@pytest.mark.parametrize("seed", [7, -3, 2**64 + 5])
def test_rekeyed_rows_draw_the_path_rng_streams(seed):
    # rows on both sides of the 64-row boundary, each drawing its normals,
    # its jumps and then more: a half-used 32-bit output and uniforms
    spec = GeneratorSpec(kind="jump_diffusion", n_steps=64, jump_rate=20.0, seed=seed)
    law = make_jump_law(spec.jump_law)

    def draws(rng, index):
        z = rng.standard_normal(spec.n_steps)
        cells, sizes = _draw_jump_cells(spec, law, rng, index)
        tail = rng.integers(0, 2**32, size=3, dtype=np.uint32)
        return z.tobytes(), cells, np.asarray(sizes).tobytes(), tail.tobytes(), rng.random(2).tobytes()

    for start, n in ((0, 64), (64, 3)):
        for r, rng in enumerate(_row_streams(seed, start, n)):
            assert draws(rng, start + r) == draws(path_rng(seed, start + r), start + r)


def test_a_coefficient_that_warns_but_stays_finite_warns_as_the_checked_loop():
    # exp overflows for x > 0.71, and sigma is then exactly 1.0: the values
    # stay finite, and every step's warning is the checked loop's
    sig = lambda t, x: 1.0 + 1.0 / (1.0 + np.exp(1000.0 * x))
    spec = GeneratorSpec(kind="jump_diffusion", n_steps=256, sigma=sig, jump_rate=3.0, seed=9)
    (values, _), warned = _same_outcome_as_checked_loop(spec, 130)
    assert np.isfinite(np.frombuffer(values)).all()
    assert warned and set(warned) == {(RuntimeWarning, "overflow encountered in exp")}
