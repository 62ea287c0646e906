import pytest

import numpy as np

from frobtrace.counting import _logs
from frobtrace.errors import ValidationError
from frobtrace.ffield import is_prime, kronecker, nonresidue, primitive_root


def test_is_prime_basics():
    assert is_prime(2)
    assert is_prime(3)
    assert is_prime(2147483647)      # 2^31 - 1
    assert not is_prime(1)
    assert not is_prime(25)
    assert not is_prime(3215031750 % (1 << 31))


def test_is_prime_range_guard():
    with pytest.raises(ValidationError):
        is_prime(1 << 31)


def test_kronecker_two_table():
    # (d/2) depends on d mod 8: 0 for even, +1 for +-1, -1 for +-3
    assert kronecker(2, 2) == 0
    assert kronecker(1, 2) == 1
    assert kronecker(7, 2) == 1
    assert kronecker(-1, 2) == 1
    assert kronecker(3, 2) == -1
    assert kronecker(5, 2) == -1
    assert kronecker(-3, 2) == -1


def test_kronecker_euler_criterion():
    for p in (3, 7, 11, 13, 17, 101, 421):
        for d in range(-20, 21):
            want = pow(d % p, (p - 1) // 2, p) if d % p else 0
            want = -1 if want == p - 1 else want
            assert kronecker(d, p) == want, (d, p)


def test_kronecker_is_the_square_test():
    for p in (3, 7, 11, 13, 31):
        squares = {x * x % p for x in range(1, p)}
        for d in range(-40, 41):
            want = 0 if d % p == 0 else 1 if d % p in squares else -1
            assert kronecker(d, p) == want, (d, p)


def test_kronecker_needs_a_prime():
    # the symbol is defined at primes only; a composite, a unit, zero or a
    # negative modulus is bad input, not a Jacobi or Kronecker extension
    for m in (15, 21, -33, 1, 0, -1, 4):
        with pytest.raises(ValidationError, match="not prime"):
            kronecker(3, m)


def test_is_prime_needs_an_integer():
    for n in ("7", 7.0, None):
        with pytest.raises(ValidationError, match="not an integer"):
            is_prime(n)


def test_nonresidue_minimal():
    assert nonresidue(3) == 2
    assert nonresidue(7) == 3
    assert nonresidue(11) == 2
    assert nonresidue(421) == 2
    for p in (2, 9, 1):
        with pytest.raises(ValidationError):
            nonresidue(p)


def test_primitive_root_generates():
    # at every odd prime the two-group kernel accepts (p < 2000) the
    # powers of g run through all of F_p^* before returning to 1, and no
    # smaller g does
    for p in (p for p in range(3, 2000) if is_prime(p)):
        g = primitive_root(p)
        x, order = g, 1
        while x != 1:
            x, order = x * g % p, order + 1
        assert order == p - 1, p
        assert all(len({pow(h, i, p) for i in range(p - 1)}) < p - 1
                   for h in range(2, g)), p
    assert primitive_root(2147483647) == 7


def test_log_tables_invert():
    # E[L[x]] = x on F_p^*, L[E[i]] = i for i < p - 1, and L[0] is the
    # sentinel 2(p - 1) past both periods of E in the kernel's table
    for p in (3, 5, 7, 11, 13, 211, 419, 421, 1009, 1999):
        exp, log = _logs(p)
        q = p - 1
        assert exp.dtype == log.dtype == np.int64
        assert exp.shape == (q,) and log.shape == (p,)
        assert np.array_equal(exp[log[1:]], np.arange(1, p))
        assert np.array_equal(log[exp], np.arange(q))
        assert log[0] == 2 * q
        assert exp[1] == primitive_root(p)


def test_f_p2_generator_and_log_tables():
    # over F_{p^2} = F_p[s]/(s^2 - n) the generator, an index a + b p, has
    # order q - 1 and no smaller index does; E steps by g, log(exp(i)) = i
    # and exp(log(x)) = x, and L[0] is the sentinel 2(q - 1)
    for p in (3, 5, 7, 11, 13):
        q, n = p * p, nonresidue(p)

        def times(x, y):
            a, b, c, d = x % p, x // p, y % p, y // p
            return (a * c + b * d * n) % p + (a * d + b * c) % p * p

        def order(h):
            x, k = h, 1
            while x != 1:
                x, k = times(x, h), k + 1
            return k

        g = primitive_root(p, 2)
        assert order(g) == q - 1, p
        assert all(order(h) < q - 1 for h in range(2, g)), p
        exp, log = _logs(p, 2)
        assert exp.shape == (q - 1,) and log.shape == (q,)
        assert exp[0] == 1 and all(times(int(x), g) == y
                                   for x, y in zip(exp, exp[1:])), p
        assert np.array_equal(log[exp], np.arange(q - 1))
        assert np.array_equal(exp[log[1:]], np.arange(1, q))
        assert log[0] == 2 * (q - 1)


def test_primitive_root_refuses():
    for p in (2, 1, 0, -3, 9, 15, 1 << 12):
        with pytest.raises(ValidationError, match="not an odd prime"):
            primitive_root(p)
    with pytest.raises(ValidationError, match="not an integer"):
        primitive_root(7.0)
    with pytest.raises(ValidationError, match="field degree 3 is not 1 or 2"):
        primitive_root(7, 3)
