"""Primality, the Kronecker symbol, and prime-field data.

Everything here is exact integer arithmetic on Python ints.  require_prime
is the prime check every entry point makes, and nonresidue(p) is the
distinguished non-residue n that defines F_{p^2} = F_p[s]/(s^2 - n).
Elements of F_p and F_{p^2} are not objects: they are residues, and
a + b s is the pair (a, b) of F_p coordinates on which the catalog module
evaluates Weil restrictions.
"""
from __future__ import annotations

from .errors import ValidationError

_MAX_P = 1 << 31

# Witnesses 2, 3, 5, 7 make Miller-Rabin deterministic for n < 3215031751,
# which covers the whole supported range p < 2^31.
_MR_WITNESSES = (2, 3, 5, 7)


def is_prime(n):
    """Deterministic primality test for n < 2^31."""
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


def kronecker(d, m):
    """Full Kronecker symbol (d/m), defined for all integers m.

    Conventions: (d/0) is 1 for d = +-1 and 0 otherwise; (d/-1) is the sign
    of d (and 1 for d = 0); (d/2) is 0 for even d and +-1 according to
    d = +-1 or +-3 mod 8.
    """
    if m == 0:
        return 1 if d in (1, -1) else 0
    sign = 1
    if m < 0:
        m = -m
        if d < 0:
            sign = -1
    # split off the even part of m
    t = 0
    while m % 2 == 0:
        m //= 2
        t += 1
    if t:
        if d % 2 == 0:
            return 0
        if t % 2 == 1 and d % 8 in (3, 5):
            sign = -sign
    # now m is odd and positive: Jacobi symbol with reciprocity
    d %= m
    while d:
        while d % 2 == 0:
            d //= 2
            if m % 8 in (3, 5):
                sign = -sign
        d, m = m, d
        if d % 4 == 3 and m % 4 == 3:
            sign = -sign
        d %= m
    return sign if m == 1 else 0


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
