"""Primality, the Kronecker symbol, and F_q arithmetic, q = p or p^2.

An element of F_p is its residue, and a + b s of F_{p^2} = F_p[s]/(s^2 -
n), n = nonresidue(p), is the index a + b p: _times and power act on
indices, as Python ints or int64 arrays, and chi_table, log_tables,
inverses and scaling are numpy tables on them.  The catalog module
evaluates Weil restrictions on the pairs (a, b) instead.

One cache rule: the tables built by a Python walk, exp and log, are
cached per (p, degree), at most 8; those numpy makes in O(q) are not, so
no 32 MB character table is held at the Weierstrass a_p budget's edge.
Over F_p a product is of two residues, below p^2 < 2^62 as p < 2^31;
over F_{p^2} of three, and _order refuses p^3 >= 2^62 before any table
is allocated, naming the largest prime accepted.
"""
from __future__ import annotations

import functools
import math
import numbers
from itertools import accumulate

import numpy as np

from .errors import ValidationError

_MAX_P = 1 << 31
_BOUND = 1 << 62                 # every product of residues stays below this
_MOD_BLOCK = 1 << 14             # cells reduce_mod divides at once

# Witnesses 2, 3, 5, 7 make Miller-Rabin deterministic for n < 3215031751,
# which covers the whole supported range p < 2^31.
_MR_WITNESSES = (2, 3, 5, 7)


def is_prime(n):
    """Deterministic primality test for n < 2^31; n must be an integer."""
    if not isinstance(n, (int, numbers.Integral)):
        raise ValidationError(f"{n!r} is not an integer")
    return _is_prime(int(n))


# kronecker re-checks its modulus at every call; recent answers are kept
@functools.lru_cache(maxsize=1 << 13)
def _is_prime(n):
    if n >= _MAX_P:
        raise ValidationError(f"modulus {n} out of supported range (< 2^31)")
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(d, p):
    """The Kronecker symbol (d/p) at a prime p: by Euler's criterion
    d^((p-1)/2) mod p at odd p; at p = 2, 0 for even d and +1 or -1 as
    d = +-1 or +-3 mod 8.  A modulus that is not prime is invalid."""
    require_prime(p)
    if p == 2:
        return 0 if d % 2 == 0 else 1 if d % 8 in (1, 7) else -1
    r = pow(d, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def require_prime(p):
    """Raise ValidationError unless p is prime."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")


@functools.lru_cache(maxsize=64)
def nonresidue(p):
    """Smallest positive quadratic non-residue n mod an odd prime p, which
    defines F_{p^2} = F_p[s]/(s^2 - n)."""
    require_prime(p)
    if p == 2:
        raise ValidationError("F_2 has no quadratic non-residue")
    return next(n for n in range(2, p) if kronecker(n, p) == -1)


def _times(x, y, p, degree=1):
    """x y in F_{p^degree} on indices: over F_{p^2}, (a + b s)(c + d s) =
    (ac + bdn) + (ad + bc) s."""
    if degree == 1:
        return x * y % p
    a, b, c, d = x % p, x // p, y % p, y // p
    return (a * c + b * d * nonresidue(p)) % p + (a * d + b * c) % p * p


def power(x, e, p, degree=1):
    """x^e in F_{p^degree}, e >= 1, by squaring on indices; x at e = 1."""
    if degree == 1 and type(x) is int:      # a residue: builtin pow
        return pow(x, e, p)
    if e == 1:
        return x
    y = power(x, e // 2, p, degree)
    y = _times(y, y, p, degree)
    return _times(y, x, p, degree) if e % 2 else y


def reduce_mod(a, p):
    """a mod p in place, a an int64 array, returned.  From 2^16 cells on a
    C-contiguous a is reduced in blocks of _MOD_BLOCK cells as a - (a // p)
    p, since numpy divides by a scalar about twice as fast as np.remainder
    reduces (0.11 against 0.27 ms on 69k cells, 2 vCPUs); smaller arrays
    take np.remainder."""
    if a.size < 1 << 16 or not a.flags.c_contiguous:
        return np.remainder(a, p, out=a)
    flat, q = a.reshape(-1), np.empty(_MOD_BLOCK, dtype=np.int64)
    for i in range(0, flat.size, _MOD_BLOCK):
        b = flat[i:i + _MOD_BLOCK]
        t = q[:b.size]
        b -= np.multiply(np.floor_divide(b, p, out=t), p, out=t)
    return a


def _field_degree(degree):
    """Refuse a field degree other than the int 1 or 2: True == 1 is no
    degree."""
    if type(degree) is not int or degree not in (1, 2):
        raise ValidationError(f"field_degree must be 1 or 2, not {degree!r}")


@functools.lru_cache(maxsize=64, typed=True)      # True is no degree 1
def primitive_root(p, degree=1):
    """Smallest generator g of F_q^*, q = p^degree, p an odd prime: no
    g^((q-1)/f) is 1 for a prime f of q - 1, found among the divisors of p
    - 1 and, over F_{p^2}, of p + 1.  There the search runs over the indices
    a + b p in order; it starts at s, as no element of F_p generates."""
    if p == 2 or not is_prime(p):
        raise ValidationError(f"{p} is not an odd prime")
    _field_degree(degree)
    m = p ** degree - 1                 # (p - 1)(p + 1) over F_{p^2}
    factors = {d for x in (p - 1, m // (p - 1))
               for f in range(1, math.isqrt(x) + 1) if x % f == 0
               for d in (f, x // f) if is_prime(d)}
    return next(g for g in range(2 if degree == 1 else p, m + 1)
                if all(power(g, m // f, p, degree) != 1 for f in factors))


def _order(p, degree):
    """q = p^degree, refused over F_{p^2} where p^3 reaches 2^62."""
    if degree == 2 and p ** 3 >= _BOUND:
        fits = round(_BOUND ** (1 / 3))
        while fits ** 3 >= _BOUND or not is_prime(fits):
            fits -= 1
        raise ValidationError(f"F_{{p^2}} tables at p={p}: products reach "
                              f"2^62; the largest prime they accept is {fits}")
    return p ** degree


def chi_table(p, degree=1):
    """The quadratic character of F_q, q = p^degree, as an int64 table on
    the indices: 1 on the squares x^2 != 0, -1 off them, chi(0) = 0."""
    x = np.arange(_order(p, degree), dtype=np.int64)
    chi = -np.ones(x.size, dtype=np.int64)
    chi[_times(x, x, p, degree)] = 1
    chi[0] = 0
    return chi


@functools.lru_cache(maxsize=8)
def log_tables(p, degree=1):
    """(E, L) on F_q^*: E[i] = g^i, g = primitive_root(p, degree) or 1 at q
    = 2, L[E[i]] = i and L[0] = 2q - 2, the kernels' sentinel past both
    periods of E.  E is a Python walk on the table of x -> g x."""
    q = _order(p, degree)
    g = primitive_root(p, degree) if q > 2 else 1
    step = _times(np.arange(q), g, p, degree).tolist()
    exp = np.array(list(accumulate(range(q - 2), lambda y, _: step[y],
                                   initial=1)))
    log = np.full(q, 2 * q - 2)
    log[exp] = np.arange(q - 1)
    return exp, log


def inverses(p):
    """x^-1 in F_p at each x, 0 at 0, read from the logs: E[-L[x]]."""
    exp, log = log_tables(p)
    return np.where(log < p - 1, exp[-log % (p - 1)], 0)


def scaling(D, d, alpha, p, degree=1):
    """S at each index beta, for the zeros in z of alpha z^D + beta z^d +
    gamma over F_q, D > d >= 0 and alpha != 0, on tables of one row of
    3 (q - 1) entries per class, each read at E3 = (E, E, 0) of
    log_tables.  With g their generator, n = gcd(D - d, q - 1) and rho_j
    = g^j, j < n, each lambda = beta/alpha != 0 is rho_j t^(D-d) for one j
    and one t = g^m, m < (q - 1)/n.  z = t w turns z^D + lambda z^d + c
    into t^D (w^D + rho_j w^d + c t^-D), the scaling of Weil (Bull. AMS
    55, 1949), so the zeros at c = gamma/alpha are row j + 1's at c t^-D;
    beta = 0 is row 0, t = 1.  S[beta] = 3 (q - 1) r + (-L[alpha] - D m
    mod q - 1) puts L[gamma] + S[beta] at L[c t^-D] < 2 (q - 1) on row r,
    or past it from L[0] = 2 (q - 1).  Products stay below D q, refused
    at 2^62."""
    q1 = _order(p, degree) - 1
    if D * q1 >= _BOUND:
        raise ValidationError(f"scaling of z^{D} at p={p}: products reach 2^62")
    exp, log = log_tables(p, degree)
    n, la = math.gcd(D - d, q1), log[alpha]
    shift = np.full(q1 + 1, -la % q1)
    j, m = np.divmod(np.arange(q1), q1 // n)
    shift[exp[(la + j + (D - d) * m) % q1]] = \
        (j + 1) * 3 * q1 + (-la - D * m) % q1
    return shift
