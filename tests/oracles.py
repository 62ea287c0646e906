"""References that the tests and CI compare the fast paths with.

The torus counts run on the catalog's polynomial evaluator, which
counting.count_torus does not use.  _percent_pass is the two-group pass
before the discrete-log tables, on a character (_chi) and powers (_power)
of its own, and _double_cover_reference multiplies the branch forms on
every cell of the full grid, as full_grid counts a one-equation chart
loop with no coordinate eliminated.  The q-series arithmetic is the dense
one, coefficient by coefficient in Python ints, that qexp's sparse eta
products replace.  Import them with tests/ on the path: pytest puts it
there for the test modules, and a script sets PYTHONPATH=src:tests.
"""
from math import gcd

import numpy as np

from frobtrace import catalog
from frobtrace.catalog import Monomial, _eval_mono_list, _grid, _zeros
from frobtrace.counting import _by_degree, _count_roots, _torus_equation
from frobtrace.errors import ValidationError
from frobtrace.ffield import kronecker
from frobtrace.qexp import QSeries

# (a, t) pairs the torus count is checked at: hulek_verrill's, one with
# a_4 = a_5, and two with an a_i = 0 mod every p, one with t = 0
TORUS_AT = [((1, 1, 1, 1, 1), 25), ((1, 1, 1, 9, 9), 9), ((2, 3, 5, 0, 7), 4),
            ((0, 1, 4, 2, 0), 0)]

def torus_dense(a, t, p):
    """Torus count of _torus_equation on the p^4 cells of X1..X4, X5 = 1."""
    on = _zeros([_torus_equation(a, t)], _grid(p, [None] * 4 + [1]), p)
    # index 0 of each free axis is the coordinate 0, off the torus
    return int(np.count_nonzero(on[1:, 1:, 1:, 1:]))


def torus_eliminated(a, t, p):
    """Torus count of _torus_equation by the chart counter's elimination,
    the oracle at large primes: _count_roots adds the roots in X4 on each
    of the (p - 1)^3 cells of X1..X3 on the torus, X5 = 1, less the root
    X4 = 0 where the constant coefficient vanishes.  At 157 the arrays take
    about 190 MB."""
    coords = _grid(p, [None] * 3 + [0, 1])
    for i in range(3):                  # X_i = 0 is off the torus
        coords[i] = np.delete(coords[i], 0, axis=i)
    c = [_eval_mono_list(q, coords, p)
         for q in _by_degree(_torus_equation(a, t), 3, 2)]
    at_zero = int(np.count_nonzero(c[0] == 0))   # _count_roots consumes c
    return _count_roots(c, p) - at_zero


# ------------------------------------------------ dense counts

def full_grid(spec, p, eqs=None):
    """The full-grid count of a one-equation chart loop: every chunk of
    _charts on the evaluator, no coordinate eliminated; the oracle of the
    elimination path."""
    return sum(int(np.count_nonzero(_zeros(eqs or spec.equations,
                                           _grid(p, f), p)))
               for f in catalog._charts(p, spec.ambient.nvars))


def _chi(p):
    """The quadratic character of F_p as a table, from kronecker."""
    return np.array([kronecker(x, p) for x in range(p)], dtype=np.int64)


def _power(x, e, p):
    """x^e mod p elementwise for e >= 1, by squaring."""
    y = np.ones_like(x)
    while e:
        if e & 1:
            y = y * x % p
        x, e = x * x % p, e >> 1
    return y


def _percent_pass(groups, k, weights, p):
    """The two-group pass as it was before the discrete-log tables: every
    key and every row of Phi reduced mod p on the p^2 cells, and the
    classes modulo (D - d)-th powers found by np.unique.  The reference of
    counting._block_pass, which must serve the same counts; its character
    and powers are its own, not the field tables the pass reads."""
    h = (p - 1) // 2
    chi = _chi(p)
    order = np.concatenate([np.flatnonzero(chi == 1),
                            np.flatnonzero(chi == -1), [0]]).astype(np.int64)
    grid = [np.arange(p, dtype=np.int64).reshape(1, p), order.reshape(p, 1)]
    (g1r, g1m), (g2r, g2m) = groups
    memo = {}

    def values(poly, s):
        terms, const = {}, 0
        for mono in poly:
            a, b, e = mono.exponents
            c = mono.coefficient * s ** e
            if a or b:
                terms[a, b] = terms.get((a, b), 0) + c
            else:
                const += c
        key = tuple(sorted((e, c % p) for e, c in terms.items() if c % p))
        if key not in memo:
            memo[key] = catalog._eval_mono_list(
                [Monomial(c, e) for e, c in key], grid, p).ravel()
        return memo[key], const % p

    def blocks(v, size, width=p):
        ends = (0, h * width, 2 * h * width, p * width)
        return np.stack([np.bincount(v[i:j], minlength=size)
                         for i, j in zip(ends, ends[1:])])

    neg = -np.arange(p) % p
    (h1, _), (h2, _) = values(g1r, 0), values(g2r, 0)
    z = blocks(h1, p) @ blocks(h2, p)[:, neg].T
    a0 = blocks(h1[::p], p, 1) @ blocks(h2[::p], p, 1)[:, neg].T
    (r1, c1), (r2, c2) = values(g1r, 1), values(g2r, 1)
    row = np.zeros(p, dtype=np.int64)
    shift = np.ones(p, dtype=np.int64)
    reps = [0]
    if k:
        (m1, d1), (m2, d2) = values(g1m, 1), values(g2m, 1)
        wts = (1, weights[1], 1)
        dr, dm = g2r[0].degree(wts), g2m[0].degree(wts)
        lams, q = np.arange(1, p, dtype=np.int64), p - 1
        n = gcd(dr - dm, q)
        _, first = np.unique(_power(lams, q // n, p), return_index=True)
        reps += lams[first].tolist()
        orbit = lams[first, None] * _power(lams, (dr - dm) % q or q, p) % p
        row[orbit] = np.arange(1, n + 1)[:, None]
        shift[orbit] = _power(lams, -dr % q or q, p)

    def level(rho):
        return r2 if not rho else (m2 * rho + r2 + rho * d2) % p

    phi = np.stack([blocks(level(rho), p) for rho in reps], axis=1)
    phi = phi.reshape(3, -1)
    key = (-r1 - c1 - c2) % p
    if k:
        lam = k * (np.arange(p) + d1) % p
        key = key * shift[lam][m1] % p + (row[lam] * p)[m1]
    nf = blocks(key, len(reps) * p) @ phi.T
    return tuple(tuple(tuple(x) for x in m.tolist()) for m in (nf, z, a0))


def _double_cover_reference(forms, p):
    """The full-grid oracle of count_double_cover: on each chart the product
    of the forms on every cell, reduced after each factor, then
    sum 1 + chi."""
    chi, total = _chi(p), 0
    for fixed in catalog._charts(p, 4):
        coords = _grid(p, fixed)
        f = np.ones(np.broadcast_shapes(*(c.shape for c in coords)), np.int64)
        for eq in forms:
            f = f * catalog._eval_mono_list(eq, coords, p) % p
        total += f.size + int(chi[f].sum())
    return total


# ------------------------------------------------ dense q-series

def qs_one(n):
    return QSeries(0, (1,) + (0,) * (n - 1))


def qs_scale(a, c):
    return QSeries(a.lead_num, tuple(c * x for x in a.coeffs))


def qs_add(a, b):
    """Sum of two series; their grids must agree modulo 24."""
    if (a.lead_num - b.lead_num) % 24 != 0:
        raise ValidationError(
            f"incompatible exponent grids: {a.lead_num}/24 and {b.lead_num}/24")
    if a.lead_num > b.lead_num:
        a, b = b, a
    shift = (b.lead_num - a.lead_num) // 24
    n = min(a.precision, shift + b.precision)
    out = list(a.coeffs[:n])
    for k, c in enumerate(b.coeffs):
        i = shift + k
        if i >= n:
            break
        out[i] += c
    return QSeries(a.lead_num, tuple(out))


def qs_mul(a, b):
    n = min(a.precision, b.precision)
    out = [0] * n
    for i, ai in enumerate(a.coeffs[:n]):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coeffs[: n - i]):
            if bj:
                out[i + j] += ai * bj
    return QSeries(a.lead_num + b.lead_num, tuple(out))


def qs_pow(a, k):
    if k < 0:
        raise ValidationError("negative powers not supported")
    r = qs_one(a.precision)
    for _ in range(k):
        r = qs_mul(r, a)
    return r
