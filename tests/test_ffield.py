import tracemalloc
from math import gcd

import pytest

import numpy as np
from hypothesis import given, settings, strategies as st

from frobtrace.errors import ValidationError
from frobtrace.ffield import (chi_table, inverses, is_prime, kronecker,
                              log_tables, nonresidue, power, primitive_root,
                              reduce_mod, scaling)

ODD_PRIMES = [p for p in range(3, 2000) if is_prime(p)]


def times(x, y, p):
    """x y in F_{p^2} = F_p[s]/(s^2 - n) on the indices a + b p, written
    out here so that the tables are checked against code they do not use."""
    n = nonresidue(p)
    a, b, c, d = x % p, x // p, y % p, y // p
    return (a * c + b * d * n) % p + (a * d + b * c) % p * p


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
    for p in ODD_PRIMES:
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
        exp, log = log_tables(p)
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
        q = p * p

        def order(h):
            x, k = h, 1
            while x != 1:
                x, k = times(x, h, p), k + 1
            return k

        g = primitive_root(p, 2)
        assert order(g) == q - 1, p
        assert all(order(h) < q - 1 for h in range(2, g)), p
        exp, log = log_tables(p, 2)
        assert exp.shape == (q - 1,) and log.shape == (q,)
        assert exp[0] == 1 and all(times(int(x), g, p) == y
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
    for degree in (3, True):
        with pytest.raises(ValidationError,
                           match=f"field_degree must be 1 or 2, not {degree}"):
            primitive_root(7, degree)


def test_chi_is_the_kronecker_symbol():
    # at every odd prime the two-group kernel accepts, and at 2, where
    # F_2 has the one square 1
    for p in [2] + ODD_PRIMES:
        chi = chi_table(p)
        assert chi.dtype == np.int64
        assert chi.tolist() == [kronecker(x, p) for x in range(p)], p


def test_chi_of_f_p2_is_chi_of_the_norm():
    # a + b s is a square in F_{p^2} exactly when its norm a^2 - n b^2 is a
    # square mod p
    for p in (3, 5, 7, 11, 13):
        n = nonresidue(p)
        want = [kronecker(a * a - n * b * b, p)
                for b in range(p) for a in range(p)]
        assert chi_table(p, 2).tolist() == want, p


def test_inverses_invert():
    for p in [2] + ODD_PRIMES[:40] + [1999]:
        inv = inverses(p)
        x = np.arange(p)
        assert inv[0] == 0 and np.all(x[1:] * inv[1:] % p == 1), p


def test_reduce_mod_is_remainder_in_place():
    # np.remainder below 2^16 cells, blocks of a - (a // p) p from there:
    # each side of the threshold and a partial last block, negatives
    # included, reduce in place to np.remainder's values; a strided view
    # takes np.remainder, in place too
    rng = np.random.default_rng(5)
    for p in (2, 41, 2 ** 31 - 1):
        for shape in (0, (1 << 16) - 1, 1 << 16, (1 << 16) + 12345, (300, 700)):
            a = rng.integers(-(1 << 62), 1 << 62, shape)
            want = np.remainder(a, p)
            assert reduce_mod(a, p) is a and np.array_equal(a, want), p
        b = rng.integers(0, 1 << 62, (300, 700))
        view, want = b[:, ::2], b[:, ::2] % p
        assert reduce_mod(view, p) is view
        assert np.array_equal(b[:, ::2], want) and not np.array_equal(b, b % p)


def test_power_over_f_p2():
    # power by squaring against repeated multiplication with times, at
    # every index and exponent to 2q
    for p in (3, 5, 7):
        q = p * p
        for x in range(q):
            y = x
            for e in range(1, 2 * q):
                assert power(x, e, p, 2) == y, (p, x, e)
                y = times(y, x, p)
        x = np.arange(q)
        assert power(x, q + 3, p, 2).tolist() == \
            [power(int(y), q + 3, p, 2) for y in x]


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([(p, 1) for p in (3, 5, 7, 11, 13)] + [(3, 2), (5, 2)]),
       st.data())
def test_scaling_matches_a_search_over_t(field, data):
    # for each beta != 0 the least m, t = g^m, and the j < n with beta =
    # alpha g^j t^(D-d), found by multiplying out; the offset is then row
    # j + 1 of 3 (q - 1) entries plus the log of 1/(alpha t^D)
    p, degree = field
    q = p ** degree
    D = data.draw(st.integers(1, 9))
    d = data.draw(st.integers(0, D - 1))
    alpha = data.draw(st.integers(1, q - 1))
    mul = (lambda x, y: x * y % p) if degree == 1 else \
        (lambda x, y: times(x, y, p))
    g, pw = primitive_root(p, degree), [1]
    while len(pw) < q - 1:
        pw.append(mul(pw[-1], g))

    def up(x, e):
        y = 1
        for _ in range(e):
            y = mul(y, x)
        return y

    def log_inverse(x):
        return next(i for i in range(q - 1) if mul(pw[i], x) == 1)

    n, found = gcd(D - d, q - 1), {}
    for m in range(q - 1):
        t = pw[m]
        for j in range(n):
            beta = mul(alpha, mul(pw[j], up(t, D - d)))
            found.setdefault(beta, (j, t))
    want = [log_inverse(alpha)] + [
        3 * (q - 1) * (j + 1) + log_inverse(mul(alpha, up(t, D)))
        for j, t in (found[beta] for beta in range(1, q))]
    assert scaling(D, d, alpha, p, degree).tolist() == want


def test_degree_2_tables_refuse_past_the_product_bound():
    # over F_{p^2} a product is of three residues, below p^3: the tables
    # refuse the first prime with p^3 >= 2^62, naming the one before, and
    # allocate nothing first; over F_p no such bound applies
    last = 1664501
    over = next(x for x in range(last + 1, 2 * last) if is_prime(x))
    assert is_prime(last)
    assert last ** 3 < 1 << 62 <= over ** 3
    for table in (log_tables, chi_table):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError,
                               match=f"reach 2\\^62.* accept is {last}$"):
                table(over, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (table, peak)
    chi = chi_table(over)
    assert chi.size == over and chi[4] == 1 and chi[over - 1] == -1
    with pytest.raises(ValidationError, match="z\\^1152921504606846976 at "
                                              "p=7: products reach 2\\^62"):
        scaling(1 << 60, 1, 1, 7)
