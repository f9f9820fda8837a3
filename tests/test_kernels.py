"""The row-wise compensated kernel against a scalar Kahan loop, and its accuracy.

The oracle forms each term inside a scalar loop and skips masked-out cells,
as the kernels did before they ran a block of rows at a time.  Every row of
`kahan_rows`, and the one-row calls built on it (`calculus.cell_sums`,
`calculus.ito_rows`, `_kernels.kahan_cumsum`), must match it bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qvlab import _kernels
from qvlab.calculus import cell_sums, ito_rows

SIZES = [2, 3, 17, 4096, 2**14 + 1]
SCALES = [1.0, 1e-8, 1e6]


def oracle_kahan(terms, keep=None):
    """Scalar Kahan running sums over the kept terms; entry 0 is 0.0."""
    ks = [True] * len(terms) if keep is None else list(keep)
    s = 0.0
    c = 0.0
    out = [0.0]
    for term, kept in zip(terms, ks):
        if kept:
            t1 = term - c
            t2 = s + t1
            c = (t2 - s) - t1
            s = t2
        out.append(s)
    return np.array(out)


def oracle_sum(x, y, mask=None, absolute=False):
    """Kahan sum of dx_k * dy_k (or |dx_k * dy_k|) over cells with mask[k-1]."""
    xs = x.tolist()
    ys = y.tolist()
    terms = [(xs[k] - xs[k - 1]) * (ys[k] - ys[k - 1]) for k in range(1, len(xs))]
    if absolute:
        terms = [abs(t) for t in terms]
    return oracle_kahan(terms, None if mask is None else mask.tolist())[-1]


def oracle_ito(eta, y):
    """Kahan running sums of eta[k-1] * (y[k] - y[k-1]); entry 0 is 0.0."""
    es = eta.tolist()
    ys = y.tolist()
    return oracle_kahan([es[k - 1] * (ys[k] - ys[k - 1]) for k in range(1, len(ys))])


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


@pytest.mark.parametrize("n", SIZES)
def test_qv_sum_backend_parity_bitexact(n):
    for scale in SCALES:
        x, y = scale * _rand(n, 1), _rand(n, 2)
        assert same_bits(one_row(x, y), oracle_sum(x, y))
        assert same_bits(one_row(x, x), oracle_sum(x, x))


@pytest.mark.parametrize("n", sorted({*SIZES, 64, 4097}))
def test_masked_kernels_backend_parity_bitexact(n):
    mask = _mask(n, 5)
    for scale in SCALES:
        x, y = scale * _rand(n, 3), _rand(n, 4)
        for m in (mask, mask.astype(np.uint8)):
            assert same_bits(one_row(x, y, m), oracle_sum(x, y, mask))
            assert same_bits(one_row(x, y, m, absolute=True), oracle_sum(x, y, mask, absolute=True))
        assert same_bits(one_row(x, x, mask), oracle_sum(x, x, mask))
        assert same_bits(one_row(x, x, mask, absolute=True), oracle_sum(x, x, mask, absolute=True))


def test_ito_cumsum_backend_parity_bitexact():
    for n in SIZES:
        for scale in SCALES:
            eta, y = scale * _rand(n - 1, 6), _rand(n, 7)
            assert same_bits(ito_rows(y[None], lambda a, b: eta[a:b])[0], oracle_ito(eta, y))


def test_kahan_cumsum_prefixes():
    terms = 1e6 * _rand(1000, 15)
    assert same_bits(_kernels.kahan_cumsum(terms), oracle_kahan(terms.tolist()))
    assert same_bits(_kernels.kahan_cumsum(np.empty(0)), [0.0])


def test_qv_sum_matches_fsum():
    # Kahan accumulation should agree with exact summation to ~1 ulp even on
    # 2^15 cells where naive accumulation drifts
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


def test_ito_cumsum_constant_integrand_telescopes():
    y = _rand(4097, 14)
    out = ito_rows(y[None], lambda a, b: 1.0)[0]
    assert out[0] == 0.0
    assert abs(out[-1] - (y[-1] - y[0])) < 1e-12


# ---------------------------------------------------------------------------
# the row-wise loop


def _rows_vs_oracle(terms, keep=None):
    n, k = terms.shape
    out = np.empty((n, k))
    totals = _kernels.kahan_rows(lambda a, b: terms[:, a:b], (n, k), keep, out=out)
    for r in range(n):
        ref = oracle_kahan(terms[r].tolist(), None if keep is None else keep[r].tolist())
        assert same_bits(out[r], ref[1:]), r
        assert same_bits(totals[r], ref[-1]), r


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
def test_kahan_rows_each_row_is_the_scalar_loop(block):
    terms, keep = block
    _rows_vs_oracle(terms, keep)
    _rows_vs_oracle(terms)


def test_kahan_rows_carries_the_state_across_slabs():
    n, k = 3, 2 * _kernels.SLAB + 77
    rng = np.random.Generator(np.random.Philox(key=16))
    terms = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 8, size=(n, k))
    keep = rng.random((n, k)) < 0.9
    keep[1] = True
    _rows_vs_oracle(terms, keep)
    # slabs are requested left to right and never wider than SLAB
    spans = []
    _kernels.kahan_rows(lambda a, b: spans.append((a, b)) or terms[:, a:b], (n, k))
    slab = _kernels.SLAB
    assert spans == [(0, slab), (slab, 2 * slab), (2 * slab, k)]
