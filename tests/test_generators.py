import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from qvlab import generators
from qvlab._parallel import map_chunked
from qvlab.errors import ConfigurationError, GenerationError
from qvlab.generators import (
    GeneratorSpec,
    _constant_value,
    _draw_jump_cells,
    _euler_block,
    _row_streams,
    build_transform,
    block_rows,
    generate,
    make_coefficient,
    make_jump_law,
    make_path,
    parse_box,
    parse_expression,
    path_rng,
)
from qvlab.functions import make_function
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


@pytest.mark.parametrize("expr", ["const(foo=1)", "const(1.0, 2.0)", "const(abc)", "linear(c=1)", 1.0])
def test_malformed_coefficient_is_a_named_configuration_error(expr):
    with pytest.raises(ConfigurationError, match=re.escape(repr(expr))):
        make_coefficient(expr)
    if isinstance(expr, str) and expr.startswith("const"):
        # the running sums trust _constant_value: it accepts only what
        # make_coefficient accepts
        with pytest.raises(ConfigurationError, match=re.escape(repr(expr))):
            _constant_value(expr)
    # validate resolves the coefficients its kind uses, and only those
    for kind, field in (("euler_sde", "sigma"), ("jump_diffusion", "b"), ("lamperti_dirichlet", "sigma_of_x")):
        with pytest.raises(ConfigurationError, match=re.escape(repr(expr))):
            GeneratorSpec(kind=kind, **{field: expr}).validate()
    GeneratorSpec(kind="brownian", sigma=expr, b=expr, sigma_of_x=expr).validate()


def test_constant_value_reads_const_only():
    assert _constant_value("const(0.7)") == 0.7 and _constant_value("const(c=-1.3)") == -1.3
    assert _constant_value("const()") == 1.0
    assert math.copysign(1.0, _constant_value("const(-0.0)")) == -1.0
    assert _constant_value("linear(0.0, 0.0)") is None
    assert _constant_value(lambda t, x: 1.0) is None


def test_brownian_initial_condition_and_determinism():
    spec = GeneratorSpec(kind="brownian", n_steps=16, x0=2.5, seed=42)
    a = generate(spec, 3)
    b = generate(spec, 3)
    assert np.all(a.values[:, 0] == 2.5)
    assert a.values.tobytes() == b.values.tobytes()  # bit-identical replay
    assert not a.marks.any()


def _block(lo, hi, spec):
    return generate(spec, hi - lo, lo)


def _blocks(spec, n_paths):
    """The blocks a chunked caller builds: one generate call per span."""
    return map_chunked(_block, n_paths, block_rows(spec.n_steps), 1, (spec,))


def test_path_replay_matches_ensemble():
    # at 64 steps the blocks split at 64, so paths 63 and 64 sit on either
    # side of a block boundary
    for kind in generators.KINDS:
        spec = GeneratorSpec(kind=kind, n_steps=64, jump_rate=3.0, seed=9)
        blocks = _blocks(spec, 70)
        assert [len(b) for b in blocks] == [64, 6]
        for i in (0, 3, 63, 64, 69):
            path, block, row = make_path(spec, i), blocks[i // 64], i % 64
            assert isinstance(path, PathEnsemble) and len(path) == 1
            assert path.values.tobytes() == block.values[row].tobytes(), (kind, i)
            assert path.marks.tobytes() == block.marks[row].tobytes(), (kind, i)


def test_brownian_increment_law():
    # law of X_1 - x0 at one step: mean within 4 standard errors, variance 10%
    spec = GeneratorSpec(kind="brownian", n_steps=1, horizon=1.0, x0=1.0, seed=5)
    ens = generate(spec, 10**4)
    term = ens.values[:, -1] - 1.0
    assert abs(term.mean()) <= 4.0 / np.sqrt(10**4)
    assert abs(term.var() - 1.0) <= 0.1


def test_brownian_kurtosis_sanity():
    spec = GeneratorSpec(kind="brownian", n_steps=4096, seed=11)
    ens = generate(spec, 25)
    incs = np.diff(ens.values, axis=1).ravel() / np.sqrt(1.0 / 4096)
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
        jumps = p.times[p.marks[0]]
        if jumps.size == 1:
            t1 = jumps[0]
            expect = np.where(p.times >= t1, 2.0, 0.0)
            assert np.array_equal(p.values[0], expect)
            break
    else:
        pytest.fail("no single-jump path found")


def test_compound_poisson_mean_count():
    spec = GeneratorSpec(kind="compound_poisson", n_steps=64, jump_rate=3.0, seed=21)
    counts = generate(spec, 10**4).marks.sum(axis=1)
    assert abs(np.mean(counts) - 3.0) <= 4.0 * np.sqrt(3.0 / 10**4)


def test_compound_poisson_piecewise_constant_and_marked():
    spec = GeneratorSpec(kind="compound_poisson", n_steps=512, jump_rate=4.0, seed=3)
    p = make_path(spec, 0)
    moved = np.diff(p.values[0]) != 0.0
    assert np.all(p.marks[0, 1:][moved])  # every move is a marked jump


def test_euler_degenerate():
    spec = GeneratorSpec(kind="euler_sde", n_steps=32, x0=1.5, sigma="const(0.0)", b="const(0.0)", seed=0)
    p = make_path(spec, 0)
    assert np.all(p.values == 1.5)


def test_euler_pure_drift_exact():
    spec = GeneratorSpec(kind="euler_sde", n_steps=64, x0=2.0, sigma="const(0.0)", b="const(1.0)", seed=0)
    p = make_path(spec, 0)
    assert p.values[0, -1] == pytest.approx(3.0, abs=1e-12)


def test_euler_unit_sigma_same_seed_is_bitexact():
    pe = make_path(GeneratorSpec(kind="euler_sde", n_steps=256, sigma="const(1.0)", seed=100), 0)
    pb = make_path(GeneratorSpec(kind="brownian", n_steps=256, seed=100), 0)
    assert np.array_equal(pe.values, pb.values)


def test_euler_unit_sigma_matches_brownian_law():
    n = 1000
    e1 = generate(GeneratorSpec(kind="euler_sde", n_steps=1024, sigma="const(1.0)", seed=101), n)
    e2 = generate(GeneratorSpec(kind="brownian", n_steps=1024, seed=201), n)
    a = e1.values[:, -1]
    b = e2.values[:, -1]
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
    assert p.marks.sum() >= 0
    assert np.all(np.isfinite(p.values))


def _lamperti_y(spec, n):
    """The Brownian block Y from h(x0) that the Lamperti paths map through h^{-1}."""
    y0 = float(build_transform(spec).forward(spec.x0))
    return generate(spec._replace(kind="brownian", x0=y0), n).values


def test_lamperti_identity_transform():
    spec = GeneratorSpec(kind="lamperti_dirichlet", n_steps=128, sigma_of_x="const(1.0)",
                         alpha=1.0, seed=4)
    x, y = generate(spec, 2).values, _lamperti_y(spec, 2)
    assert np.allclose(x, y, atol=1e-9)


def test_lamperti_linear_transform():
    # sigma = c constant: h(x) = c^(-2 alpha) x, so X = c^(2 alpha) Y
    c, alpha = 2.0, 0.5
    spec = GeneratorSpec(kind="lamperti_dirichlet", n_steps=128, sigma_of_x=f"const({c})",
                         alpha=alpha, seed=8)
    x, y = generate(spec, 2).values, _lamperti_y(spec, 2)
    assert np.allclose(x, c ** (2 * alpha) * y, atol=1e-7)


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


@pytest.mark.parametrize(
    "expr",
    [
        "normal(mu=5.0, sd=0.1)", "const(1, 2)", "uniform(0, 1, 2)", "normal(a, b)",
        "normal(0, inf)", "uniform(nan, 1)", "const(inf)", 3,
    ],
)
def test_jump_law_rejects_keywords_and_extra_arguments(expr):
    # keywords were dropped silently (N(0, 1) for the first), extra
    # arguments died with an IndexError, a non-finite parameter failed later,
    # in generation, under a message that blamed sigma or b, and a number in
    # place of the expression died with a TypeError
    with pytest.raises(ConfigurationError, match=f"jump_law.*{re.escape(repr(expr))}"):
        make_jump_law(expr)
    for kind in ("compound_poisson", "jump_diffusion"):
        with pytest.raises(ConfigurationError, match=f"jump_law.*{re.escape(repr(expr))}"):
            GeneratorSpec(kind=kind, jump_rate=2.0, jump_law=expr).validate()


@pytest.mark.parametrize(
    "make, what, unknown, nan, refused",
    [
        (make_coefficient, "coefficient", "nope(1)", "linear(0.0, nan)",
         {"const(1.0, 2.0)": "const() takes", "step(1.0, 2.0, z=3)": "step() got an unexpected keyword"}),
        (make_jump_law, "jump_law", "nope(1)", "normal(0.0, nan)",
         {"const(1.0, 2.0)": "const() takes", "normal(mu=5.0)": "normal() got some positional-only"}),
        (make_function, "function", "mystery(1.0)", "relu(k=nan)",
         {"abs(1.0)": "abs() takes", "relu(j=1)": "relu() got an unexpected keyword",
          "moving_kink(k=1)": "moving_kink() got an unexpected keyword",
          "scaled_step(phi=foo)": "unknown profile 'foo'"}),
        (parse_box, "theta", "blob(0, 1)", "box(0, 1, -1, nan)", {"box(0, 1, -1, 1, 2)": "box() takes"}),
    ],
    ids=["coefficient", "jump_law", "function", "theta"],
)
def test_every_expression_is_refused_by_one_rule(make, what, unknown, nan, refused):
    # the message names what was being built and, where Python's argument
    # binding refuses, the expression's name, not its factory's
    cases = [
        (unknown, re.escape(f"unknown {what} {unknown.split('(')[0]!r}") + "$"),
        (nan, re.escape(f"bad {what} {nan!r}: arguments must be finite") + "$"),
        *((expr, re.escape(f"bad {what} {expr!r}: {reason}")) for expr, reason in refused.items()),
        (3, re.escape(f"{what} must be an expression, got 3") + "$"),
    ]
    for expr, pattern in cases:
        with pytest.raises(ConfigurationError, match="^" + pattern):
            make(expr)


def test_mean_drift_variation():
    assert GeneratorSpec(kind="brownian").mean_drift_variation(1.0) == 0.0
    cp = GeneratorSpec(kind="compound_poisson", jump_rate=3.0, jump_law="normal(0.0, 1.0)", n_steps=4096)
    assert cp.mean_drift_variation(1.0) == 0.0
    cp2 = GeneratorSpec(kind="compound_poisson", jump_rate=2.0, jump_law="const(1.5)", n_steps=4096)
    assert cp2.mean_drift_variation(2.0) == pytest.approx(6.0)
    drift = GeneratorSpec(kind="euler_sde", b="const(-2.0)")
    assert drift.mean_drift_variation(1.0) == pytest.approx(2.0)
    assert GeneratorSpec(kind="euler_sde", b="linear(0,1)").mean_drift_variation(1.0) is None
    # the drift is b + rate * E[J] = 0.5 + 2 * (-0.25): no drift at all
    jd = GeneratorSpec(kind="jump_diffusion", b="const(0.5)", jump_rate=2.0, jump_law="const(-0.25)")
    assert jd.mean_drift_variation(1.0) == 0.0
    # an array of times gives each time's value, bit for bit
    ts = np.linspace(0.0, 1.0, 257)
    for spec in (cp2, drift):
        want = np.array([spec.mean_drift_variation(float(t)) for t in ts])
        assert spec.mean_drift_variation(ts).tobytes() == want.tobytes()
    assert GeneratorSpec(kind="euler_sde", b="linear(0,1)").mean_drift_variation(ts) is None


def test_invalid_specs_rejected():
    with pytest.raises(ConfigurationError):
        GeneratorSpec(kind="wat").validate()
    with pytest.raises(ConfigurationError):
        GeneratorSpec(n_steps=0).validate()
    with pytest.raises(ConfigurationError):
        GeneratorSpec(horizon=-1.0).validate()
    with pytest.raises(ConfigurationError):
        GeneratorSpec(alpha=1.5).validate()
    # a non-finite real is refused by name, before any numpy call sees it
    for field in ("horizon", "x0", "jump_rate"):
        for value in (math.nan, math.inf, -math.inf):
            spec = GeneratorSpec(kind="compound_poisson", jump_rate=3.0)._replace(**{field: value})
            with pytest.raises(ConfigurationError, match=rf"^{field} must be finite, got "):
                spec.validate()


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
    jump_at = np.zeros(n + 1)
    for c in cells:
        jump_at[c] = _reference_jump_size(spec.jump_law, rng)
    return jump_at


def _reference_jump_size(law, rng):
    # the three laws' formulas, written out here so the oracle does not
    # share the generator's sampling code
    name, args, _ = parse_expression(law)
    if name == "normal":
        mu, sd = args
        return mu + sd * rng.standard_normal()
    if name == "uniform":
        a, b = args
        return a + (b - a) * rng.random()
    (c,) = args
    return c


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
    y, marks = _reference_brownian(spec._replace(x0=y0), rng)
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
    "compound_poisson_const": dict(kind="compound_poisson", jump_rate=40.0, jump_law="const(1.5)"),
    "jump_diffusion_normal": dict(kind="jump_diffusion", jump_rate=20.0, sigma="abs_shift(0.5, 0.5)",
                                  b="const(0.1)", jump_law="normal(0.5, 2.0)"),
    "lamperti_dirichlet": dict(kind="lamperti_dirichlet", sigma_of_x="abs_shift(0.5, 0.5)", alpha=0.5),
}


def _same_bits(block, row, ref) -> bool:
    values, marks = ref
    return block.values[row].tobytes() == values.tobytes() and np.array_equal(block.marks[row], marks)


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_block_generation_matches_scalar_reference(name):
    spec = GeneratorSpec(n_steps=256, seed=2024, **ORACLE_SPECS[name])
    ref = [_REFERENCE[spec.kind](spec, path_rng(spec.seed, i)) for i in range(130)]
    ens = generate(spec, 130)
    assert all(_same_bits(ens, i, r) for i, r in enumerate(ref))
    # the blocks split at 64 and 128; make_path is a one-row block
    blocks = _blocks(spec, 130)
    assert [len(b) for b in blocks] == [64, 64, 2]
    assert all(_same_bits(blocks[i // 64], i % 64, r) for i, r in enumerate(ref))
    for i in (0, 63, 64, 129):
        assert _same_bits(make_path(spec, i), 0, ref[i])


@pytest.mark.parametrize("n_steps, n_paths, lengths", [(4096, 70, [31, 31, 8]), (2**16, 17, [8, 8, 1])])
def test_blocks_are_sized_by_cells(n_steps, n_paths, lengths):
    # 2^17 cells a block, between 8 and 64 rows; 256 steps give 64 rows (above)
    assert [block_rows(n) for n in (2046, 2047, 2048, 4096, 2**14 - 1, 2**14, 2**16)] == [64, 64, 63, 31, 8, 8, 8]
    spec = GeneratorSpec(kind="brownian", n_steps=n_steps, seed=3)
    spans = map_chunked(lambda lo, hi: (lo, hi), n_paths, block_rows(n_steps), 1)
    assert [hi - lo for lo, hi in spans] == lengths
    assert [lo for lo, _ in spans] == np.cumsum([0, *lengths[:-1]]).tolist()
    blocks = _blocks(spec, n_paths)
    for i in (0, n_paths - 1):
        assert make_path(spec, i).values.tobytes() == blocks[i // lengths[0]].values[i % lengths[0]].tobytes()


def test_signed_zero_specs_tell_the_jump_term_apart():
    # the oracle comparison is bitwise, so it sees whether + 0.0 ran
    def negative_zeros(name):
        ens = generate(GeneratorSpec(n_steps=8, seed=1, **ORACLE_SPECS[name]), 20)
        after_start = ens.values[:, 1:]
        return int(np.sum((after_start == 0.0) & np.signbit(after_start)))

    assert negative_zeros("euler_signed_zero") > 0
    assert negative_zeros("jump_signed_zero") == 0


def test_blocks_are_read_only():
    ens = generate(GeneratorSpec(kind="jump_diffusion", n_steps=64, jump_rate=3.0, seed=2), 3)
    values, marks = ens.values, ens.marks
    assert values.shape == (3, 65)
    for arr in (values, marks, ens.times, values[1], marks[1]):
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
    rows = generators.block_rows(spec.n_steps)
    spans = [(lo, min(lo + rows, n_paths)) for lo in range(0, n_paths, rows)]
    got = _outcome(lambda: [generate(spec, hi - lo, lo) for lo, hi in spans])
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


def test_an_euler_error_names_the_earliest_failure_of_the_first_failing_block():
    # at 4096 steps a block holds 31 rows; at this seed path 34 is the first
    # of the 64 paths to leave |x| < 2, and path 6 the first of paths 0..30
    spec = GeneratorSpec(kind="euler_sde", n_steps=4096, seed=5,
                         sigma=lambda t, x: np.where(np.abs(x) < 2.0, 1.0, np.inf))
    assert generators.block_rows(spec.n_steps) == 31
    (kind, message), _ = _same_outcome_as_checked_loop(spec, 64)
    assert kind is GenerationError and "path=6, " in message
    (_, one_block), _ = _outcome(lambda: [_checked_block(spec, 64, 0)])
    assert "path=34, " in one_block


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


# ---------------------------------------------------------------------------
# the running sums for constant sigma and b, bit for bit against the oracle

SUMMABLE = {
    "b<0": dict(sigma="const(0.7)", b="const(-1.3)"),
    "b=0": dict(sigma="const(2.0)", b="const(0.0)"),
}


@pytest.mark.parametrize("n_steps", [1, 511, 512, 513, 1000])
@pytest.mark.parametrize("coefs", sorted(SUMMABLE))
@pytest.mark.parametrize("kind", ["euler_sde", "jump_diffusion"])
def test_running_sums_equal_the_checked_loop(monkeypatch, kind, coefs, n_steps):
    # 0.4 jumps per cell, so the 64-row block has jumps on the first and the
    # last cell and on both sides of every slab edge; one step holds at most
    # one jump, and at this seed and rate no row draws two
    rate = 0.4 * n_steps if n_steps > 1 else 0.1
    spec = GeneratorSpec(kind=kind, n_steps=n_steps, x0=0.25, jump_rate=rate, seed=31, **SUMMABLE[coefs])

    def no_step_loop(*args, **kwargs):
        raise AssertionError("the step loop ran")

    for n, start in ((1, 5), (64, 64)):
        want_values, want_marks = _checked_loop(spec, n, start)
        with monkeypatch.context() as m:
            m.setattr(generators, "_euler_steps", no_step_loop)
            values, marks = _euler_block(spec, n, start)
        assert values.tobytes() == want_values.tobytes() and np.array_equal(marks, want_marks)
    if kind == "jump_diffusion":
        edges = [c for c in (1, 512, 513, n_steps) if c <= n_steps]
        assert marks[:, edges].any(axis=0).all()


STEP_LOOP_OUTCOMES = {
    # -0.0 + 0.0 * x is +0.0, so -0.0 is no constant the sums may take
    "const(-0.0)": dict(x0=-0.0, sigma="const(0.0)", b="const(-0.0)"),
    # make_coefficient refuses the expression const(nan), so the constant is
    # passed as its callable
    "const(nan)": dict(sigma=generators._Const(float("nan"))),
    # x overflows in the first slab, and in the second, after the sums wrote
    # over the first slab's normals
    "overflow": dict(x0=1.7e308, b="const(1e308)"),
    "overflow after 512 steps": dict(x0=1.7e308, b="const(1.4e307)"),
}


@pytest.mark.parametrize("case", sorted(STEP_LOOP_OUTCOMES))
@pytest.mark.parametrize("kind", ["euler_sde", "jump_diffusion"])
def test_constant_coefficients_off_the_sums_keep_the_step_loop_outcome(kind, case):
    spec = GeneratorSpec(kind=kind, n_steps=1000, jump_rate=3.0, seed=4, **STEP_LOOP_OUTCOMES[case])
    result, warned = _same_outcome_as_checked_loop(spec, 70)
    if case == "const(nan)":
        assert result[0] is GenerationError and "path=0, t=0.0," in result[1] and not warned
    elif case.startswith("overflow"):
        # const(1.0) is NaN one step after x overflows
        assert result[0] is GenerationError and result[1].endswith("x=inf)")
        assert (RuntimeWarning, "overflow encountered in add") in warned
        t = float(re.search(r"t=([^,]+),", result[1]).group(1))
        assert (t > 0.512) == (case == "overflow after 512 steps")
    else:
        assert not generators._summable(-0.0) and not warned
