import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from frobtrace import qexp
from frobtrace.errors import ValidationError
from frobtrace.qexp import (F25_TERMS, QSeries, coefficient, eta,
                            eta_combination, eta_product, f25, hasse_check,
                            hecke_check)
from oracles import qs_add, qs_mul, qs_one, qs_pow, qs_scale

F25_COEFFS = {1: 1, 2: 1, 3: 7, 4: -7, 5: 0, 6: 7, 7: 6, 8: -15, 9: 22,
              10: 0, 11: -43, 12: -49, 13: -28, 17: 91, 19: -35, 23: 162,
              29: 160, 31: 42, 37: -314, 41: -203, 43: 92, 47: 196,
              101: 1302, 211: 4307, 421: -3788}
# sha256 of the comma-joined 10^4 coefficients of f25, as the dense
# qs_pow/qs_mul chain computed them
F25_SHA256_1E4 = ("d8475afa6c6c5ced6496234d2e8aae5c"
                  "ad812e896aa521d1b22ceb9cbf7b5773")


@pytest.fixture(scope="module")
def f25_big():
    return f25(10**5)


def _primes_upto(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, int(n ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = False
    return [int(q) for q in np.flatnonzero(sieve)]


def _dense_eta_product(exponents, n):
    r = qs_one(n)
    for m, k in exponents.items():
        r = qs_mul(r, qs_pow(eta(m, n), k))
    return r


def test_eta_pentagonal_support():
    n = 200
    e = eta(1, n)
    want = {}
    j = 0
    while j * (3 * j + 1) // 2 < n:
        for jj in (j, -j) if j else (0,):
            k = jj * (3 * jj - 1) // 2
            if k < n:
                want[k] = 1 if jj % 2 == 0 else -1
        j += 1
    for k in range(n):
        assert e.coeffs[k] == want.get(k, 0), k


def test_eta_grid():
    assert eta(1, 10).lead_num == 1
    assert eta(5, 10).lead_num == 5
    assert eta(25, 10).lead_num == 25
    with pytest.raises(ValidationError):
        eta(0, 10)


def test_series_arithmetic():
    a = QSeries(0, (1, 2, 3))
    b = QSeries(48, (5,))
    assert qs_add(a, b).coeffs == (1, 2, 8)
    assert qs_scale(a, -2).coeffs == (-2, -4, -6)
    assert qs_mul(eta(1, 5), eta(5, 5)).lead_num == 6
    assert qs_pow(a, 2).coeffs == (1, 4, 10)
    assert qs_one(3).coeffs == (1, 0, 0)
    with pytest.raises(ValidationError):
        qs_pow(a, -1)


def test_incompatible_grids_rejected():
    with pytest.raises(ValidationError):
        qs_add(eta(1, 5), eta(5, 5))
    # 25 = 1 mod 24: same grid, fine
    qs_add(eta(1, 5), eta(25, 5))


def test_coefficient_semantics():
    s = f25(10)
    assert coefficient(s, 1) == 1
    assert coefficient(s, 10) == 0
    assert coefficient(s, 0) == 0           # below the lead: exact zero
    assert coefficient(s, -3) == 0
    assert coefficient(eta(1, 10), 1) == 0  # off the 1/24 grid
    with pytest.raises(ValidationError):
        coefficient(s, 11)                  # past the truncation: loud


def test_f25_coefficients():
    s = f25(430)
    for n, want in F25_COEFFS.items():
        assert coefficient(s, n) == want, n


def test_f25_hecke_and_multiplicativity(f25_big):
    hecke = [p for p in _primes_upto(316) if p != 5]     # p^2 <= 10^5
    for p in hecke:
        assert hecke_check(f25_big, 4, p), p
    assert coefficient(f25_big, 6) == coefficient(f25_big, 2) * coefficient(f25_big, 3)
    assert coefficient(f25_big, 10) == coefficient(f25_big, 2) * coefficient(f25_big, 5)


def test_f25_hasse(f25_big):
    primes = [p for p in _primes_upto(10**5) if p != 5]
    res = hasse_check(f25_big, 4, primes)
    assert len(res) == 9591 and all(res.values())


def test_f25_matches_dense_expansion(f25_big):
    s = f25(10**4)
    digest = hashlib.sha256(",".join(map(str, s.coeffs)).encode()).hexdigest()
    assert digest == F25_SHA256_1E4
    assert f25_big.coeffs[:10**4] == s.coeffs
    assert all(type(c) is int for c in f25_big.coeffs)
    assert max(map(abs, f25_big.coeffs)) == 141178800


@settings(max_examples=40, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from((1, 2, 3, 5, 7, 11, 25)),
                       st.integers(0, 4), max_size=3),
       st.integers(1, 300))
def test_eta_product_matches_dense_chain(exponents, n):
    s = eta_product(exponents, n)
    assert s == _dense_eta_product(exponents, n)
    assert all(type(c) is int for c in s.coeffs)


def test_eta_product_guards():
    assert eta_product({}, 4) == qs_one(4)
    for bad in ({0: 1}, {1: -1}):
        with pytest.raises(ValidationError):
            eta_product(bad, 4)
    with pytest.raises(ValidationError):
        eta_product({1: 1}, 0)
    with pytest.raises(ValidationError):
        eta_combination([], 4)


def test_int64_bound_falls_back_to_python_ints(monkeypatch):
    # 2^62 - (2^62 + 1) * q times (1 - q): the q coefficient is -2^63 - 1,
    # which int64 would wrap; the bound check moves the product to Python ints
    d = np.array([2**62, -(2**62 + 1)], dtype=np.int64)
    out = qexp._times_eta(d, 1)
    assert out.dtype == object and out.tolist() == [2**62, -2**63 - 1]
    # a lowered limit sends f25 partway down the fallback, same series
    want = f25(2000)
    dtypes = []
    times_eta = qexp._times_eta

    def spy(d, m):
        out = times_eta(d, m)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(qexp, "_INT64_LIMIT", 10**5)
    monkeypatch.setattr(qexp, "_times_eta", spy)
    got = f25(2000)
    assert got == want
    assert np.dtype(np.int64) in dtypes and np.dtype(object) in dtypes
    assert all(type(c) is int for c in got.coeffs)


@st.composite
def combinations(draw):
    """Random eta combinations on one exponent grid: eta(z)'s power sets
    each lead to the first one's mod 24, and coefficients run past
    _INT64_LIMIT, so some sums go over to Python ints."""
    terms, residue = [], draw(st.integers(0, 23))
    for _ in range(draw(st.integers(1, 4))):
        k5, k25 = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        k1 = (residue - 5 * k5 - 25 * k25) % 24 + 24 * draw(st.integers(0, 1))
        c = draw(st.one_of(st.integers(-30, 30),
                           st.integers(2 ** 60, 2 ** 70).map(lambda x: -x),
                           st.integers(2 ** 60, 2 ** 70)))
        terms.append((c, {5: k5, 1: k1, 25: k25}))
    return terms


@settings(max_examples=40, deadline=None, database=None)
@given(combinations(), st.integers(1, 120))
@example([(1, {}), (3, {1: 96})], 3)        # a term four steps past n
def test_eta_combination_matches_qs_add(terms, n):
    # the one summed array equals the sum by qs_scale and qs_add of the
    # dense products, its lead the lowest and its precision n, whether it
    # stays int64 or goes over to Python ints
    want = None
    for c, exponents in terms:
        t = qs_scale(_dense_eta_product(exponents, n), c)
        want = t if want is None else qs_add(want, t)
    got = eta_combination(terms, n)
    assert got == want
    assert all(type(c) is int for c in got.coeffs)


def test_eta_combination_refuses_mixed_grids():
    # eta(z) leads at 1/24 and eta(5z) at 5/24: no sum places both
    with pytest.raises(ValidationError, match="incompatible exponent grids"):
        eta_combination([(1, {1: 1}), (1, {5: 1})], 8)


def test_eta_combination_tail_coefficients_pinned():
    # rescaling the last two terms of the combination to (1, 5, 20, 1, 1)
    # already breaks the Hecke relation at p = 2, so the stored vector
    # (1, 5, 20, 25, 25) is forced
    n = 10
    e1, e5, e25 = eta(1, n), eta(5, n), eta(25, n)
    terms = None
    for i, c in enumerate((1, 5, 20, 1, 1)):
        t = qs_mul(qs_pow(e1, 4 - i), qs_mul(qs_pow(e5, 4), qs_pow(e25, i)))
        t = qs_scale(t, c)
        terms = t if terms is None else qs_add(terms, t)
    assert not hecke_check(terms, 4, 2)
    assert hecke_check(f25(n), 4, 2)
    assert terms == eta_combination(
        [(c, exps) for c, (_, exps) in zip((1, 5, 20, 1, 1), F25_TERMS)], n)

