"""The compensated kernels against a scalar Kahan loop, and their accuracy.

The oracle forms each term inside the loop and skips masked-out cells, as
the kernels did before they formed their terms with numpy; the kernels must
match it bit for bit.
"""

import math

import numpy as np
import pytest

from qvlab import _kernels

SIZES = [2, 3, 17, 4096, 2**14 + 1]
SCALES = [1.0, 1e-8, 1e6]


def oracle_sum(x, y, mask=None, absolute=False):
    """Kahan sum of dx_k * dy_k (or |dx_k * dy_k|) over cells with mask[k-1]."""
    xs = x.tolist()
    ys = y.tolist()
    ms = [True] * (len(xs) - 1) if mask is None else mask.tolist()
    s = 0.0
    c = 0.0
    for k in range(1, len(xs)):
        if not ms[k - 1]:
            continue
        term = (xs[k] - xs[k - 1]) * (ys[k] - ys[k - 1])
        if absolute:
            term = abs(term)
        t1 = term - c
        t2 = s + t1
        c = (t2 - s) - t1
        s = t2
    return s


def oracle_ito(eta, y):
    """Kahan running sums of eta[k-1] * (y[k] - y[k-1]); entry 0 is 0.0."""
    es = eta.tolist()
    ys = y.tolist()
    s = 0.0
    c = 0.0
    out = [0.0]
    for k in range(1, len(ys)):
        term = es[k - 1] * (ys[k] - ys[k - 1])
        t1 = term - c
        t2 = s + t1
        c = (t2 - s) - t1
        s = t2
        out.append(s)
    return np.array(out)


def same_bits(a, b):
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


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
        assert same_bits(_kernels.qv_sum(x, y), oracle_sum(x, y))
        assert same_bits(_kernels.qv_sum(x, x), oracle_sum(x, x))


@pytest.mark.parametrize("n", sorted({*SIZES, 64, 4097}))
def test_masked_kernels_backend_parity_bitexact(n):
    mask = _mask(n, 5)
    for scale in SCALES:
        x, y = scale * _rand(n, 3), _rand(n, 4)
        for m in (mask, mask.astype(np.uint8)):
            assert same_bits(_kernels.masked_qv_sum(x, y, m), oracle_sum(x, y, mask))
            assert same_bits(_kernels.masked_abs_sum(x, y, m), oracle_sum(x, y, mask, absolute=True))
        assert same_bits(_kernels.masked_qv_sum(x, x, mask), oracle_sum(x, x, mask))
        assert same_bits(_kernels.masked_abs_sum(x, x, mask), oracle_sum(x, x, mask, absolute=True))


def test_ito_cumsum_backend_parity_bitexact():
    for n in SIZES:
        for scale in SCALES:
            eta, y = scale * _rand(n - 1, 6), _rand(n, 7)
            out = np.empty(n)
            assert _kernels.ito_cumsum(eta, y, out) is out
            assert same_bits(out, oracle_ito(eta, y))


def test_kahan_cumsum_prefixes():
    terms = 1e6 * _rand(1000, 15)
    # unit increments make the oracle's terms equal to `terms` exactly
    assert same_bits(_kernels.kahan_cumsum(terms), oracle_ito(terms, np.arange(1001.0)))
    assert same_bits(_kernels.kahan_cumsum(np.empty(0)), [0.0])


def test_qv_sum_matches_fsum():
    # Kahan accumulation should agree with exact summation to ~1 ulp even on
    # 2^15 cells where naive accumulation drifts
    x, y = _rand(2**15, 8), _rand(2**15, 9)
    terms = (x[1:] - x[:-1]) * (y[1:] - y[:-1])
    exact = math.fsum(terms.tolist())
    got = _kernels.qv_sum(x, y)
    assert abs(got - exact) <= 4 * np.finfo(float).eps * abs(exact)


def test_masked_all_true_equals_full():
    x, y = _rand(513, 10), _rand(513, 11)
    for mask in (np.ones(512, dtype=bool), np.ones(512, dtype=np.uint8)):
        assert same_bits(_kernels.masked_qv_sum(x, y, mask), _kernels.qv_sum(x, y))


def test_masked_all_false_is_zero():
    x, y = _rand(100, 12), _rand(100, 13)
    for mask in (np.zeros(99, dtype=bool), np.zeros(99, dtype=np.uint8)):
        assert same_bits(_kernels.masked_qv_sum(x, y, mask), 0.0)
        assert same_bits(_kernels.masked_abs_sum(x, y, mask), 0.0)


def test_ito_cumsum_constant_integrand_telescopes():
    y = _rand(4097, 14)
    eta = np.ones(4096)
    out = np.empty(4097)
    _kernels.ito_cumsum(eta, y, out)
    assert out[0] == 0.0
    assert abs(out[-1] - (y[-1] - y[0])) < 1e-12
