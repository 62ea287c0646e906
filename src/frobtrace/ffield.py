"""Primality, the Kronecker symbol at a prime, and prime-field data.

Everything here is exact integer arithmetic on Python ints.  require_prime
is the prime check every entry point makes, nonresidue(p) is the
distinguished non-residue n that defines F_{p^2} = F_p[s]/(s^2 - n), and
primitive_root(p, degree) the base of the counting module's discrete-log
tables of F_p^* and F_{p^2}^*.  Elements of F_p and F_{p^2} are not
objects: they are residues, and a + b s is the pair (a, b) of F_p
coordinates on which the catalog module evaluates Weil restrictions, or
the index a + b p of a table.
"""
from __future__ import annotations

import functools
import math
import numbers

from .errors import ValidationError

_MAX_P = 1 << 31

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


def nonresidue(p):
    """Smallest positive quadratic non-residue n mod an odd prime p, which
    defines F_{p^2} = F_p[s]/(s^2 - n)."""
    require_prime(p)
    if p == 2:
        raise ValidationError("F_2 has no quadratic non-residue")
    return next(n for n in range(2, p) if kronecker(n, p) == -1)


@functools.lru_cache(maxsize=64)
def primitive_root(p, degree=1):
    """Smallest generator g of F_q^*, q = p^degree, p an odd prime: no
    g^((q-1)/f) is 1 for a prime f of q - 1.  Over F_{p^2} = F_p[s]/(s^2 -
    nonresidue(p)) the element a + b s is its index a + b p, the order in
    which the search runs; it starts at s, as no element of F_p generates."""
    if p == 2 or not is_prime(p):
        raise ValidationError(f"{p} is not an odd prime")
    if degree not in (1, 2):
        raise ValidationError(f"field degree {degree!r} is not 1 or 2")
    q, n = p ** degree, nonresidue(p) if degree == 2 else 0

    def power(x, e):                    # x^e in F_q, by squaring
        if q == p:
            return pow(x, e, p)
        a, b, ra, rb = x % p, x // p, 1, 0
        while e:
            if e & 1:
                ra, rb = (ra * a + rb * b * n) % p, (ra * b + rb * a) % p
            a, b, e = (a * a + b * b * n) % p, 2 * a * b % p, e >> 1
        return ra + rb * p

    m = q - 1
    factors = {d for f in range(1, math.isqrt(m) + 1) if m % f == 0
               for d in (f, m // f) if is_prime(d)}
    return next(g for g in range(2 if degree == 1 else p, q)
                if all(power(g, m // f) != 1 for f in factors))
