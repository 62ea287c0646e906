import pytest

from frobtrace.errors import ValidationError
from frobtrace.ffield import is_prime, kronecker, nonresidue


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
