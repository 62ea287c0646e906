"""References that the tests and CI compare the fast paths with.

The torus counts run on the catalog's polynomial evaluator, which
counting.count_torus does not use.  The q-series arithmetic is the dense
one, coefficient by coefficient in Python ints, that qexp's sparse eta
products replace.  Import them with tests/ on the path: pytest puts it
there for the test modules, and a script sets PYTHONPATH=src:tests.
"""
import numpy as np

from frobtrace.catalog import _eval_mono_list, _grid, _zeros
from frobtrace.counting import _by_degree, _count_roots, _torus_equation
from frobtrace.errors import ValidationError
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
    return _count_roots(c, p) - int(np.count_nonzero(c[0] == 0))


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
