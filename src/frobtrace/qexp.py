"""Exact q-expansions on the 1/24-integral exponent grid.

A QSeries stores a leading exponent as a numerator over 24 and integer
coefficients at unit q-steps from there, which is exactly the grid eta
quotients live on.  All arithmetic is integer arithmetic; precision is
tracked so that asking past the truncation errors instead of returning a
silent zero.

Eta products are built sparse: by Euler's pentagonal theorem eta(mz) has
O(sqrt(n/m)) nonzero terms below q^n, so `eta_product` multiplies each
factor into a dense int64 array with one shifted add per term, and a
combination adds its products into one array.  Every product and every
sum is checked against the int64 range first and falls back to Python
ints when it could leave it.  The dense references the tests compare
against live with the tests (tests/oracles.py).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class QSeries:
    lead_num: int          # leading exponent is lead_num / 24
    coeffs: tuple          # coeffs[k] multiplies q^{(lead_num + 24 k)/24}

    @property
    def precision(self):
        return len(self.coeffs)


@lru_cache(maxsize=64)
def _pentagonal(m, n):
    """The nonzero terms (e, sign) of prod_{k>=1} (1 - q^{mk}) below q^n:
    e = m j(3j-1)/2 over j in Z, sign (-1)^j (Euler's pentagonal theorem),
    as a tuple."""
    terms = [(0, 1)]
    j = 1
    while m * (j * (3 * j - 1) // 2) < n:
        sign = -1 if j % 2 else 1
        for e in (m * (j * (3 * j - 1) // 2), m * (j * (3 * j + 1) // 2)):
            if e < n:
                terms.append((e, sign))
        j += 1
    return tuple(terms)


def eta(m, n):
    """q^{m/24} prod_{k>=1} (1 - q^{mk}), truncated to n coefficients.

    The series part is supported on m times the generalized pentagonal
    numbers j(3j-1)/2 with sign (-1)^j.
    """
    if m < 1 or n < 1:
        raise ValidationError("eta needs m >= 1, n >= 1")
    coeffs = [0] * n
    for e, sign in _pentagonal(m, n):
        coeffs[e] = sign
    return QSeries(m, tuple(coeffs))


# Largest |value| a product may reach and stay on the int64 path.
_INT64_LIMIT = 2**63 - 1


def _times_eta(d, m):
    """The dense array d times the series part of eta(mz), as a new array:
    one shifted add of the old d per pentagonal term.  Every partial sum
    of an output value adds at most len(terms) values of d, so the product
    stays in int64 while len(terms) * max|d| <= _INT64_LIMIT; past that it
    is done in Python ints (an object array), which then carry on."""
    n = len(d)
    terms = _pentagonal(m, n)
    if d.dtype != object and len(terms) * int(np.abs(d).max()) > _INT64_LIMIT:
        d = d.astype(object)
    out = np.zeros_like(d)
    for e, sign in terms:
        if sign > 0:
            out[e:] += d[:n - e]
        else:
            out[e:] -= d[:n - e]
    return out


def eta_combination(terms, n):
    """sum c prod_m eta(mz)^k over the pairs (c, {m: k}) of terms, each
    product truncated to n coefficients, summed from the lowest leading
    exponent, with n coefficients.

    A product is built one eta factor at a time, in the order its map
    lists them.  The longest partial product each later term starts with
    is kept, so products that begin alike share that work.  Each scaled
    product is added at its offset into one array, int64 while the sum of
    |c| max|product| over the terms so far is at most _INT64_LIMIT, which
    bounds every partial sum, and Python ints past it.  The coefficients
    are Python ints, whichever path a product took.
    """
    if n < 1:
        raise ValidationError("need at least one coefficient")
    if not terms:
        raise ValidationError("need at least one eta product")
    for _, exponents in terms:
        for m, k in exponents.items():
            if m < 1 or k < 0:
                raise ValidationError(
                    f"eta products need m >= 1 and k >= 0, got eta({m}z)^{k}")
    paths = [tuple(m for m, k in exponents.items() for _ in range(k))
             for _, exponents in terms]
    lead = min(map(sum, paths))
    for path in paths:
        if (sum(path) - lead) % 24:
            raise ValidationError(f"incompatible exponent grids: {lead}/24 "
                                  f"and {sum(path)}/24")
    unit = np.zeros(n, dtype=np.int64)
    unit[0] = 1
    partial = {(): unit}

    def longest(path):
        return max((key for key in partial if path[:len(key)] == key), key=len)

    total, bound = np.zeros(n, dtype=np.int64), 0
    for j, ((c, _), path) in enumerate(zip(terms, paths)):
        key = longest(path)
        d = partial[key]
        for m in path[len(key):]:
            key += (m,)
            d = partial[key] = _times_eta(d, m)
        keep = {longest(later) for later in paths[j + 1:]}
        partial = {key: partial[key] for key in keep}
        bound += abs(c) * int(np.abs(d).max())
        if total.dtype != object and (d.dtype == object or bound > _INT64_LIMIT):
            total = total.astype(object)
        shift = (sum(path) - lead) // 24
        if shift < n:
            total[shift:] += c * d[:n - shift].astype(total.dtype, copy=False)
    return QSeries(lead, tuple(total.tolist()))


def eta_product(exponents, n):
    """prod_m eta(mz)^k over exponents = {m: k}, truncated to n
    coefficients: the chain of eta factors, built sparse."""
    return eta_combination([(1, exponents)], n)


def coefficient(s, n):
    """Coefficient of q^n (integer n).  Exponents below the lead or off the
    grid are exact zeros; exponents past the truncation raise."""
    num = 24 * n - s.lead_num
    if num % 24 != 0:
        return 0
    idx = num // 24
    if idx < 0:
        return 0
    if idx >= s.precision:
        raise ValidationError(
            f"coefficient of q^{n} beyond precision ({s.precision} terms "
            f"from {s.lead_num}/24)")
    return s.coeffs[idx]


# f25 = sum_i c_i eta(z)^{4-i} eta(5z)^4 eta(25z)^i.  Each map lists
# eta(5z)^4 first, so the five products share it and the eta(z)^k chain.
F25_TERMS = tuple((c, {5: 4, 1: 4 - i, 25: i})
                  for i, c in enumerate((1, 5, 20, 25, 25)))


def f25(n):
    """Weight-4 level-25 newform as the eta combination F25_TERMS, with n
    coefficients available (a_1 .. a_n).  Term i leads at q^{1+i}, so
    eta_combination adds it at offset i.

    Up to 10^5 coefficients every partial product stays on the int64
    path: the largest value of any of them is 123499668 (< 2^27), and the
    largest |a_n| is 141178800.
    """
    return eta_combination(F25_TERMS, n)


def hasse_check(s, weight, primes):
    """Exact Weil/Deligne bound check a_p^2 <= 4 p^{weight-1} for each
    prime; returns {p: bool}."""
    out = {}
    for p in primes:
        ap = coefficient(s, p)
        out[p] = ap * ap <= 4 * p ** (weight - 1)
    return out


def hecke_check(s, weight, p):
    """a_{p^2} == a_p^2 - p^{weight-1} a_1, exact."""
    ap = coefficient(s, p)
    ap2 = coefficient(s, p * p)
    return ap2 == ap * ap - p ** (weight - 1) * coefficient(s, 1)
