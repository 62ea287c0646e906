import itertools

import pytest
from hypothesis import given, settings, strategies as st

from frobtrace.errors import ValidationError
from frobtrace.livne import (STATUS_COVER, STATUS_EVEN, STATUS_OK,
                             STATUS_TRACE, build_basis, check_cover,
                             find_cover_set, frobenius_signature,
                             livne_compare)

S25 = frozenset({2, 5})
T25 = [3, 7, 11, 13, 17, 29, 31]


def test_build_basis():
    assert build_basis(S25).entries == (-1, 2, 5)
    assert build_basis({3, 5}).entries == (-3, 5)
    assert build_basis({13}).entries == (13,)
    with pytest.raises(ValidationError):
        build_basis(set())
    with pytest.raises(ValidationError):
        build_basis({4})


def test_signature_ramified_guards():
    basis = build_basis(S25)
    with pytest.raises(ValidationError):
        frobenius_signature(basis, 5)
    with pytest.raises(ValidationError):
        frobenius_signature(basis, 2)
    with pytest.raises(ValidationError):
        frobenius_signature(basis, 9)


def test_signature_depends_on_p_mod_40():
    basis = build_basis(S25)
    for a, b in ((3, 43), (7, 47), (11, 211), (13, 53), (17, 97), (31, 71)):
        assert (b - a) % 40 == 0
        assert frobenius_signature(basis, a) == frobenius_signature(basis, b)


def test_cover_complete_and_distinct():
    rep = check_cover(S25, T25)
    assert rep.complete
    assert rep.missing == ()
    sigs = list(rep.signatures.values())
    assert len(set(sigs)) == 7
    assert (1, 1, 1) not in sigs


def test_cover_needs_every_prime():
    for drop in T25:
        rep = check_cover(S25, [p for p in T25 if p != drop])
        assert not rep.complete
        assert len(rep.missing) == 1


def test_find_cover_set():
    assert find_cover_set(S25) == T25
    with pytest.raises(ValidationError):
        find_cover_set(S25, bound=20)


def test_livne_statuses():
    tr = {p: 2 * p for p in T25}
    ok = livne_compare(tr, dict(tr), S25, T25)
    assert ok.status == STATUS_OK

    even = livne_compare(tr, dict(tr), S25, T25, dets_match_parity=False)
    assert even.status == STATUS_EVEN

    odd = dict(tr)
    odd[7] = 3
    rep = livne_compare(tr, odd, S25, T25)
    assert rep.status == STATUS_EVEN
    assert "odd trace" in rep.detail

    partial = [p for p in T25 if p != 29]
    rep = livne_compare(tr, dict(tr), S25, partial)
    assert rep.status == STATUS_COVER

    off = dict(tr)
    off[29] = tr[29] + 2
    rep = livne_compare(tr, off, S25, T25)
    assert rep.status == STATUS_TRACE
    assert "29" in rep.detail


def test_livne_evenness_precedes_cover():
    tr = {p: 2 * p for p in T25}
    odd = dict(tr)
    odd[3] = 1
    partial = [p for p in T25 if p != 31]
    rep = livne_compare(tr, odd, S25, partial)
    assert rep.status == STATUS_EVEN


def test_livne_missing_trace():
    tr = {p: 0 for p in T25}
    with pytest.raises(ValidationError):
        livne_compare(tr, {3: 0}, S25, T25)


_SMALL_PRIMES = (3, 5, 7, 11, 13)
_T_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
             61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


@settings(max_examples=60, deadline=None, database=None)
@given(st.sets(st.sampled_from(_SMALL_PRIMES), max_size=3), st.data())
def test_check_cover_matches_brute_force(odd_s, data):
    s = {2} | odd_s
    t_set = data.draw(st.sets(st.sampled_from(
        [p for p in _T_PRIMES if p not in s]), max_size=8))
    # signatures by Euler's criterion over -1, 2 and the odd primes of S
    entries = [-1, 2] + sorted(odd_s)
    hit = {tuple(1 if pow(d % p, (p - 1) // 2, p) == 1 else -1
                 for d in entries) for p in t_set}
    classes = set(itertools.product((1, -1), repeat=len(entries)))
    missing = tuple(sorted(classes - {(1,) * len(entries)} - hit))
    rep = check_cover(s, t_set)
    assert rep.missing == missing
    assert rep.complete == (not missing)
