"""The row-wise summation kernel against a scalar AccSum loop and math.fsum.

The scalar reference runs Algorithm 4.5 of Rump, Ogita and Oishi,
"Accurate floating-point summation part I: faithful rounding" (2008), on
every prefix of one row, one Python float at a time.  `_kernels.row_sums`
has one mode: it forms every prefix, and a row's total is its last one.
Every row of its prefixes and totals, and of the block sums built on it
(`calculus.cell_sums`, which reads the totals, and `calculus.ito_rows`,
which reads every prefix), must match the reference bit for bit.  Every
running sum must also be a faithful rounding of the exact sum (one of the
two doubles next to it), checked against math.fsum prefix by prefix.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvlab import _kernels
from qvlab.calculus import cell_sums, ito_rows
from qvlab.errors import NonFiniteError

SIZES = [2, 3, 17, 4096, 2**14 + 1]
SCALES = [1.0, 1e-8, 1e6]


def accsum_prefixes(terms, keep=None):
    """Scalar AccSum of every prefix of the kept terms; entry 0 is 0.0.

    sigma comes from the whole row and its kept-cell count, as in the
    kernel; a prefix whose remainders are all zero stops, exact.
    """
    ks = [True] * len(terms) if keep is None else list(keep)
    p = [float(x) if kept else 0.0 for x, kept in zip(terms, ks)]
    if not all(map(math.isfinite, p)):
        return np.array([0.0] + [math.nan] * len(p))
    m = math.frexp(sum(ks) + 1.0)[1]
    e = math.frexp(max(map(abs, p), default=0.0))[1] + m
    res = [None] * len(p)
    t = None
    while None in res:
        sigma = math.ldexp(1.0, e)
        q = [(sigma + x) - sigma for x in p]
        p = [x - y for x, y in zip(p, q)]
        tau = list(itertools.accumulate(q))
        rest = list(itertools.accumulate(p))
        reach = list(itertools.accumulate(map(abs, p), max))
        limit = math.ldexp(1.0, e + 2 * m - 52)
        t1s = []
        for i in range(len(p)):
            if t is None:
                t1, tail = tau[i], rest[i]
            else:
                t1 = t[i] + tau[i]
                z = t1 - t[i]
                tail = (t[i] - (t1 - z)) + (tau[i] - z)
                tail += rest[i]
            if res[i] is None and (abs(t1) >= limit or reach[i] == 0):
                res[i] = t1 + tail
            t1s.append(t1)
        t = t1s
        e += m - 53
    return np.array([0.0] + res)


def oracle_sum(x, y, mask=None, absolute=False):
    """Reference sum of dx_k * dy_k (or |dx_k * dy_k|) over cells with mask[k-1]."""
    xs = x.tolist()
    ys = y.tolist()
    terms = [(xs[k] - xs[k - 1]) * (ys[k] - ys[k - 1]) for k in range(1, len(xs))]
    if absolute:
        terms = [abs(t) for t in terms]
    return accsum_prefixes(terms, None if mask is None else mask.tolist())[-1]


def oracle_ito(eta, y):
    """Reference running sums of eta[k-1] * (y[k] - y[k-1]); entry 0 is 0.0."""
    es = eta.tolist()
    ys = y.tolist()
    return accsum_prefixes([es[k - 1] * (ys[k] - ys[k - 1]) for k in range(1, len(ys))])


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def one_row(x, y, mask=None, absolute=False):
    keep = None if mask is None else mask[None]
    return cell_sums(x[None], y[None], keep, absolute)[0]


def _rand(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal(n)


def _mask(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.random(n - 1) < 0.7


def _block(terms, keep=None):
    """(running sums, totals) of every row of an (n, K) block."""
    n, k = terms.shape
    out = np.empty((n, k))
    _kernels.row_sums(lambda a, b: terms[a:b], (n, k), keep, out=out)
    return out, _kernels.row_sums(lambda a, b: terms[a:b], (n, k), keep)


@pytest.mark.parametrize("n", SIZES)
def test_cell_sums_match_scalar_accsum(n):
    for scale in SCALES:
        x, y = scale * _rand(n, 1), _rand(n, 2)
        assert same_bits(one_row(x, y), oracle_sum(x, y))
        assert same_bits(one_row(x, x), oracle_sum(x, x))


@pytest.mark.parametrize("n", sorted({*SIZES, 64, 4097}))
def test_masked_cell_sums_match_scalar_accsum(n):
    mask = _mask(n, 5)
    for scale in SCALES:
        x, y = scale * _rand(n, 3), _rand(n, 4)
        for m in (mask, mask.astype(np.uint8)):
            assert same_bits(one_row(x, y, m), oracle_sum(x, y, mask))
            assert same_bits(one_row(x, y, m, absolute=True), oracle_sum(x, y, mask, absolute=True))
        assert same_bits(one_row(x, x, mask), oracle_sum(x, x, mask))
        assert same_bits(one_row(x, x, mask, absolute=True), oracle_sum(x, x, mask, absolute=True))


def test_ito_rows_match_scalar_accsum():
    for n in SIZES:
        for scale in SCALES:
            eta, y = scale * _rand(n - 1, 6), _rand(n, 7)
            assert same_bits(ito_rows(y[None], lambda a, b: eta)[0], oracle_ito(eta, y))


def test_running_sums_prefixes():
    terms = 1e6 * _rand(1000, 15)
    assert same_bits(_block(terms[None])[0][0], accsum_prefixes(terms.tolist())[1:])
    assert same_bits(_block(np.empty((1, 0)))[0][0], [])


def test_qv_sum_matches_fsum():
    # the sum should agree with exact summation to ~1 ulp even on 2^15 cells
    # where naive accumulation drifts
    x, y = _rand(2**15, 8), _rand(2**15, 9)
    terms = (x[1:] - x[:-1]) * (y[1:] - y[:-1])
    exact = math.fsum(terms.tolist())
    got = one_row(x, y)
    assert abs(got - exact) <= 4 * np.finfo(float).eps * abs(exact)


def test_masked_all_true_equals_full():
    x, y = _rand(513, 10), _rand(513, 11)
    for mask in (np.ones(512, dtype=bool), np.ones(512, dtype=np.uint8)):
        assert same_bits(one_row(x, y, mask), one_row(x, y))


def test_masked_all_false_is_zero():
    x, y = _rand(100, 12), _rand(100, 13)
    for mask in (np.zeros(99, dtype=bool), np.zeros(99, dtype=np.uint8)):
        assert same_bits(one_row(x, y, mask), 0.0)
        assert same_bits(one_row(x, y, mask, absolute=True), 0.0)


def test_ito_rows_constant_integrand_telescopes():
    y = _rand(4097, 14)
    out = ito_rows(y[None], lambda a, b: 1.0)[0]
    assert out[0] == 0.0
    assert abs(out[-1] - (y[-1] - y[0])) < 1e-12


# ---------------------------------------------------------------------------
# the row-wise kernel


def _ulps_from_fsum(got, terms):
    """Distance in ulps of the running sums `got` from math.fsum of each
    prefix of the finite `terms`; fails unless each is a faithful rounding."""
    worst = 0
    exact = Fraction(0)
    for k, term in enumerate(terms):
        exact += Fraction(term)
        near = math.fsum(terms[: k + 1])
        if got[k] != near:
            # the other faithful rounding: near's neighbour towards the exact sum
            side = math.inf if exact > Fraction(near) else -math.inf
            assert got[k] == math.nextafter(near, side), (k, got[k], near)
            worst = 1
    return worst


def _faithful_rows(terms, keep=None):
    out, totals = _block(terms, keep)
    worst = 0
    for r, row in enumerate(terms):
        kept = [float(v) if keep is None or keep[r, j] else 0.0 for j, v in enumerate(row)]
        worst = max(worst, _ulps_from_fsum(out[r], kept))
        assert same_bits(out[r], accsum_prefixes(row.tolist(), None if keep is None else keep[r])[1:]), r
        assert same_bits(totals[r], out[r, -1] if row.size else 0.0), r
    return worst


def _cases():
    rng = np.random.Generator(np.random.Philox(key=17))
    x = rng.standard_normal((4, 200))
    scales = 10.0 ** rng.integers(-12, 12, size=(4, 200))
    yield "cancellation", np.concatenate([x * scales, -(x * scales)[:, ::-1]], axis=1)
    yield "cancellation", np.array([[1e16, 1.0, -1e16, 1.0], [1.0, 2.0**-60, -1.0, -(2.0**-60)], [3.0, -3.0, 0.1, -0.1]])
    walk = rng.standard_normal((3, 400))
    walk[:, 1:] -= walk[:, :-1] * (1 - 2.0**-40)  # running sums pass close to zero
    yield "cancellation", walk
    yield "scaled e^±20", rng.standard_normal((6, 300)) * np.exp(rng.uniform(-20, 20, size=(6, 1)))
    yield "scaled e^±20", rng.standard_normal((3, 300)) * np.exp(rng.uniform(-20, 20, size=(3, 300)))
    tiny = rng.standard_normal((3, 100))
    yield "subnormal", tiny * 1e-310
    yield "subnormal", np.where(rng.random((3, 100)) < 0.5, tiny * 5e-324 * 2**20, tiny * 1e-300)
    yield "tiny", np.where(rng.random((3, 100)) < 0.1, tiny, tiny * 1e-200)
    yield "zeros", np.zeros((2, 50))
    yield "zeros", np.full((2, 50), -0.0)
    yield "zeros", np.array([[-0.0, 0.0, -0.0, 1.0, -1.0, -0.0]])
    # rows whose bits need the second extraction's TwoSum term, and the
    # stopping threshold exactly as in AccSum (found by search against the
    # scalar reference)
    yield "extraction edge", np.array([[float.fromhex(h) for h in (
        "0x1.976d2e037de42p-60", "0x1.3014bd987f414p-45", "-0x1.4e782d7abbd93p-92", "-0x1.a69db45311b99p-55",
        "-0x1.33947946dbc58p-60", "0x1.04529bee0490dp-59", "0x1.bf2fbedd57f64p-1")]])
    yield "extraction edge", np.array([[float.fromhex(h) for h in (
        "-0x1.336f19ff248afp-76", "0x1.23ff20ba4592dp-46", "0x1.54e38ae9f6fc8p-76", "-0x1.5d82c85e0138ap-3",
        "0x1.54743170a51c2p-46")]])
    yield "K = 0", np.empty((3, 0))
    yield "one row", rng.standard_normal((1, 257))
    yield "one cell", np.array([[2.5], [-0.0], [1e-310]])


@pytest.mark.parametrize("case, terms", list(_cases()), ids=lambda v: v if isinstance(v, str) else "")
def test_row_sums_are_faithful_against_fsum(case, terms):
    # the largest error seen on these cases is recorded in CHANGES.md
    assert _faithful_rows(terms) <= 1


def test_row_sums_masked_are_faithful_and_ignore_dropped_cells():
    rng = np.random.Generator(np.random.Philox(key=18))
    terms = rng.standard_normal((6, 300)) * np.exp(rng.uniform(-20, 20, size=(6, 300)))
    keep = rng.random((6, 300)) < 0.7
    keep[1] = False  # a row with every cell dropped
    assert _faithful_rows(terms, keep) <= 1
    dirty = terms.copy()
    dirty[~keep] = rng.choice([np.nan, np.inf, -np.inf], size=int((~keep).sum()))
    for a, b in zip(_block(dirty, keep), _block(terms, keep)):
        assert same_bits(a, b)


def test_dropped_cells_change_no_bits():
    # sigma counts the kept cells, so dropping cells, as zcqv_ladder drops
    # the cells that hold S or end past t, keeps a row's bits; this row's
    # sums change with m
    row = [float.fromhex(h) for h in ("-0x1.3de158c9799e8p+0", "-0x1.06bbfd0129f47p+0", "0x1.b78d0efa70cd9p-104")]
    padded = np.full((1, 20), np.nan)
    padded[0, :3] = row
    keep = np.arange(20)[None] < 3
    out, totals = _block(np.array([row]))
    out_padded, totals_padded = _block(padded, keep)
    assert same_bits(out_padded[0, :3], out[0]) and same_bits(totals_padded, totals)


def test_all_zero_sums_are_positive_zero():
    out, totals = _block(np.array([[-0.0, -0.0], [0.0, -0.0]]))
    assert same_bits(out, np.zeros((2, 2))) and same_bits(totals, np.zeros(2))


MIXED = st.one_of(
    st.floats(min_value=-1e-9, max_value=1e-9),
    st.floats(min_value=-1e9, max_value=1e9),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16]),
)


@st.composite
def blocks(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 40))
    terms = np.array(draw(st.lists(MIXED, min_size=n * k, max_size=n * k)), dtype=float).reshape(n, k)
    keep = np.array(draw(st.lists(st.booleans(), min_size=n * k, max_size=n * k)), dtype=bool).reshape(n, k)
    if n > 1 and k and draw(st.booleans()):
        keep[draw(st.integers(0, n - 1))] = False  # a row with every cell dropped
    return terms, keep


@settings(max_examples=200, deadline=None)
@given(blocks())
@example((np.empty((3, 0)), np.empty((3, 0), dtype=bool)))
@example((np.array([[1e16, 1.0, -1e16, 1.0]]), np.ones((1, 4), dtype=bool)))
@example((np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[False, False], [True, False]])))
def test_row_sums_each_row_is_the_scalar_loop(block):
    terms, keep = block
    assert _faithful_rows(terms, keep) <= 1
    assert _faithful_rows(terms) <= 1


def test_row_sums_bits_do_not_depend_on_the_slab(monkeypatch):
    # each row's bits are the same summed alone, in a 64-row block, and with
    # slabs of one row or of the whole block
    rng = np.random.Generator(np.random.Philox(key=16))
    n, k = 64, 300
    terms = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 8, size=(n, k))
    terms[::7] *= np.exp(rng.uniform(-20, 20, size=(10, 1)))
    terms[3, 150:] = -terms[3, 149::-1]  # exact cancellation
    keep = rng.random((n, k)) < 0.9
    keep[1] = True
    want = [_block(terms[r : r + 1], keep[r : r + 1]) for r in range(n)]
    for cells in (_kernels.CELLS, 1, n * k):
        monkeypatch.setattr(_kernels, "CELLS", cells)
        out, totals = _block(terms, keep)
        for r, (row_out, row_total) in enumerate(want):
            assert same_bits(out[r], row_out[0]) and same_bits(totals[r], row_total[0]), (cells, r)
    # slabs are requested top to bottom and hold at most CELLS cells
    monkeypatch.setattr(_kernels, "CELLS", 1000)
    spans = []
    _kernels.row_sums(lambda a, b: spans.append((a, b)) or terms[a:b], (n, k))
    assert spans == [(a, min(a + 3, n)) for a in range(0, n, 3)]


# ---------------------------------------------------------------------------
# non-finite terms


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_kept_term_gives_a_non_finite_row(bad):
    rng = np.random.Generator(np.random.Philox(key=19))
    terms = rng.standard_normal((3, 50))
    clean = _block(terms)
    terms[1, 20] = bad
    out, totals = _block(terms)
    assert np.isnan(out[1]).all() and np.isnan(totals[1])
    for r in (0, 2):
        assert same_bits(out[r], clean[0][r]) and same_bits(totals[r], clean[1][r])


@pytest.mark.parametrize("big", [1.7e308, -1.7e308, 2.0**1021])
def test_terms_whose_sigma_overflows_raise(big):
    # sigma = 2^(m + E) must stay finite; the kernel never returns inf
    terms = np.array([[1.0, 2.0], [big, 1.0]])
    with pytest.raises(NonFiniteError, match="row 1"):
        _block(terms)
    # the error names the row of the whole block, past the first slab
    rows = np.ones((3 * _kernels.CELLS // 2, 2))
    rows[-1, 0] = big
    with pytest.raises(NonFiniteError, match=f"row {len(rows) - 1} ") as err:
        _block(rows)
    assert err.value.row == len(rows) - 1
    # one cell below the limit sums normally
    assert _block(np.array([[2.0**1019, 2.0**1019]]))[1][0] == 2.0**1020
