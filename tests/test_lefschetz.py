import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from frobtrace import catalog, lefschetz
from frobtrace.catalog import (Ambient, Monomial, VarietySpec, load_catalog,
                               singular_points)
from frobtrace.counting import count_projective
from frobtrace.errors import RefusalError, ValidationError
from frobtrace.ffield import is_prime
from frobtrace.lefschetz import (LedgerMove, declared_curve, elliptic_ap,
                                 euler_ledger, nodal_curve, node_correction,
                                 quotient_ledger, solve_betti, trace_h3)

CAT = load_catalog()

E_PLANE_AP = {3: -1, 7: -2, 11: -3, 13: 4, 17: 3, 19: 5, 23: -6, 29: 0,
              31: 2, 37: -2, 41: -3}


def test_trace_h3():
    # smooth quintic count at 3, one hyperplane class, node correction -3
    assert trace_h3(36, 3, 1, -3) == 7
    assert trace_h3(40, 3, 1, 0) == 0    # P^3 itself: t3 vanishes


def test_node_correction_small():
    # schoen_x has 125 rational nodes at p = 1 mod 5 and one otherwise
    assert node_correction(11, "small", 5, 125) == 1375
    assert node_correction(3, "small", 5, 1) == -3
    assert node_correction(7, "small", 5, 125) == -875


def test_node_correction_big():
    # e_plane has one rational node at 13 and five at 11
    assert node_correction(13, "big", 5, 1) == 169        # non-split quadric
    assert node_correction(11, "big", 5, 5) == 715        # split: p^2 + 2p each


def test_node_correction_guards():
    with pytest.raises(ValidationError):
        node_correction(5, "small", 5, 1)
    with pytest.raises(ValidationError):
        node_correction(7, "medium", 5, 1)
    with pytest.raises(ValidationError):
        node_correction(7, "small", 0, 1)


def test_solve_betti_p3():
    assert solve_betti(40, 3, 4) == [{"b2": 1, "b3": 0}]
    # True == 1, but a bool is no Euler characteristic
    with pytest.raises(ValidationError, match="chi True is not an integer"):
        solve_betti(40, 3, True)


def test_solve_betti_quotient_counts():
    # resolved quotient counts; 421 = 1 mod 20 pins the pair down uniquely
    assert solve_betti(89735308, 421, 168) == [{"b2": 85, "b3": 4}]
    assert solve_betti(12747268, 211, 168) == []
    assert solve_betti(60, 3, 168) == []


def test_solve_betti_monotone_window():
    sols = solve_betti(89735308, 421, 168)
    for s in sols:
        b2, b3 = s["b2"], s["b3"]
        assert 168 == 2 + 2 * b2 - b3
        t3 = trace_h3(89735308, 421, b2, 0)
        assert t3 * t3 <= b3 * b3 * 421 ** 3


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from((2, 3, 5, 7, 11, 13, 31, 47)), st.integers(-200, 400),
       st.data())
def test_solve_betti_candidates_are_exactly_the_admissible_pairs(p, chi, data):
    n_p = data.draw(st.integers(0, 3 * p ** 4))
    cands = solve_betti(n_p, p, chi)

    def admissible(b2):
        b3 = 2 + 2 * b2 - chi
        t3 = 1 + (p + p * p) * b2 + p ** 3 - n_p
        return b3 >= 0 and t3 * t3 <= b3 * b3 * p ** 3, t3

    for c in cands:
        assert chi == 2 + 2 * c["b2"] - c["b3"]
        assert admissible(c["b2"])[0], c
    # scan past the point where the trace leaves the window from above
    found, b2, past = [], 1, 0
    while past < 20:
        ok, t3 = admissible(b2)
        if ok:
            found.append(b2)
        elif t3 > 0 and 2 + 2 * b2 - chi >= 0:
            past += 1
        b2 += 1
    assert [c["b2"] for c in cands] == found


def test_euler_ledger():
    res = euler_ledger(quotient_ledger())
    assert res.final == 168
    assert res.checkpoints == (-200, -75, -39, -37, -42, 168)


def _ledger(*moves):
    return [LedgerMove(kind, tuple(args)) for kind, *args in moves]


def test_euler_ledger_equivalences():
    # the two cheap moves commute; big resolution adds 3 per node, small
    # resolution 1, and the double quotient halves chi + chi_fixed
    a = euler_ledger(_ledger(("base_chi", 10), ("contract_nodes", 4),
                             ("replace", 2, 6))).final
    b = euler_ledger(_ledger(("base_chi", 10), ("replace", 2, 6),
                             ("contract_nodes", 4))).final
    assert a == b == 18
    assert euler_ledger(_ledger(("base_chi", 0),
                                ("resolve_nodes_big", 7))).final == 21
    assert euler_ledger(_ledger(("base_chi", 0), ("resolve_nodes_small", 7),
                                ("riemann_hurwitz", 3))).checkpoints == \
        (0, 7, 5)
    assert quotient_ledger() == _ledger(
        ("base_chi", -200), ("contract_nodes", 125), ("riemann_hurwitz", -3),
        ("replace", 2, 4), ("replace", -5, -10), ("resolve_nodes_big", 70))


def test_euler_ledger_guards():
    with pytest.raises(ValidationError, match="start with base_chi"):
        euler_ledger(_ledger(("contract_nodes", 5)))
    with pytest.raises(ValidationError, match="start with base_chi"):
        euler_ledger([])
    with pytest.raises(ValidationError, match="only allowed as the first"):
        euler_ledger(_ledger(("base_chi", 1), ("base_chi", 2)))
    with pytest.raises(ValidationError, match="-203 is odd"):
        euler_ledger(_ledger(("base_chi", -200), ("riemann_hurwitz", -3)))
    with pytest.raises(ValidationError, match="replace takes 2 argument"):
        LedgerMove("replace", (2,))
    with pytest.raises(ValidationError, match="base_chi takes 1 argument"):
        LedgerMove("base_chi", ())
    with pytest.raises(ValidationError, match="unknown ledger move 'divide'"):
        LedgerMove("divide", (2,))


def test_elliptic_ap():
    ep = CAT.variety("e_plane")
    for p, want in E_PLANE_AP.items():
        assert elliptic_ap(ep, p) == want


def test_nodal_curve_against_the_count_and_the_node_scan():
    # one scan gives the dense count's points and the singular scan's nodes
    ep = CAT.variety("e_plane")
    good = [p for p in range(2, 212) if is_prime(p) and p not in ep.bad_primes]
    for p in good + [421]:
        e = nodal_curve(ep, p)
        assert e.points == count_projective(ep, p).count, p
        assert e.nodes == len(singular_points(ep, p)), p
        assert 0 <= e.split <= e.nodes and e.ap ** 2 <= 4 * p, p
        if p in E_PLANE_AP:
            assert e.ap == elliptic_ap(ep, p) == E_PLANE_AP[p], p
    # over F_{p^2} the five nodes are rational when p^2 = 1 mod 5
    for p in (3, 7, 11, 13):
        e = nodal_curve(ep, p, degree=2)
        assert e.points == count_projective(ep, p, degree=2).count, p
        assert e.nodes == (5 if p * p % 5 == 1 else 1), p
        assert e.ap == E_PLANE_AP[p] ** 2 - 2 * p, p


def test_declared_curve_matches_the_scan():
    # the O(p) reading of e_plane's declared normalization gives the scan's
    # points, nodes, split nodes and a_p at every good prime up to 211, in
    # every class mod 5 (p = 4 mod 5 included), and at 421
    ep = CAT.variety("e_plane")
    good = [p for p in range(2, 212) if is_prime(p) and p not in ep.bad_primes]
    assert {p % 5 for p in good} == {1, 2, 3, 4}
    for p in good + [421]:
        assert declared_curve(ep, p) == nodal_curve(ep, p), p


@settings(max_examples=4, deadline=None, database=None)
@given(st.sampled_from([q for q in range(211, 1501) if is_prime(q)]))
def test_declared_curve_matches_the_scan_at_large_primes(p):
    ep = CAT.variety("e_plane")
    assert declared_curve(ep, p) == nodal_curve(ep, p)


def test_declared_nodes_are_the_scanned_nodes():
    # the declared exponent vectors (0, k, -k) of a fifth root of unity z
    # give exactly the scanned singular points (1, z^k, z^-k) where z is in
    # F_p, and only the all-ones node elsewhere
    ep = CAT.variety("e_plane")
    nodes = ep.normalization.nodes
    assert nodes.order == 5
    for p in (11, 31, 3, 7, 13, 19):
        z = next(g for g in range(1, p) if pow(g, 5, p) == 1
                 and (g != 1 or p % 5 != 1))
        rational = [a for a in nodes.exponents
                    if len({(p - 1) * e % 5 for e in a}) == 1]
        points = sorted(tuple(pow(z, e, p) for e in a) for a in rational)
        assert points == singular_points(ep, p), p
        assert nodes.rational(p) == len(points) == (5 if p % 5 == 1 else 1)
    assert singular_points(ep, 13) == [(1, 1, 1)]


def test_declared_curve_guards():
    ep = CAT.variety("e_plane")
    with pytest.raises(RefusalError):
        declared_curve(ep, 5)
    with pytest.raises(ValidationError):
        declared_curve(ep, 9)
    with pytest.raises(ValidationError, match="no normalization"):
        declared_curve(CAT.variety("schoen_x"), 7)


def test_elliptic_ap_degree_two():
    ep = CAT.variety("e_plane")
    assert elliptic_ap(ep, 3, degree=2) == -5
    assert elliptic_ap(ep, 7, degree=2) == -10
    # a over F_{p^2} determined by a over F_p: a' = a^2 - 2p, which
    # elliptic_ap reads off the declared normalization; the scan of F_{p^2}
    # is its oracle at every odd good prime up to 23, and at 19 four of the
    # five nodes are defined over F_{p^2} only
    for p in (3, 7, 11, 13, 17, 19, 23):
        assert elliptic_ap(ep, p, degree=2) == nodal_curve(ep, p, 2).ap \
            == E_PLANE_AP[p] ** 2 - 2 * p, p


def test_node_search_skips_empty_charts(monkeypatch):
    # the node search evaluates no partial on a chart with no point, and
    # nodal_curve no Taylor coefficient or discriminant on a chart with no
    # singular point: no evaluator call runs on an empty array, and over
    # F_{11^2} e_plane takes 26 calls (48 when every chart ran them all)
    sizes, run = [], catalog._eval_mono_list

    def spy(eq, coords, p):
        value = run(eq, coords, p)
        sizes.append(value.size)
        return value

    monkeypatch.setattr(catalog, "_eval_mono_list", spy)
    monkeypatch.setattr(lefschetz, "_eval_mono_list", spy)
    ep = CAT.variety("e_plane")
    assert nodal_curve(ep, 11, 2).ap == E_PLANE_AP[11] ** 2 - 2 * 11
    assert len(sizes) == 26 and 0 not in sizes
    assert nodal_curve(ep, 11).ap == E_PLANE_AP[11]
    assert len(singular_points(CAT.variety("schoen_x"), 11)) == 125
    assert 0 not in sizes


def test_elliptic_ap_weil_bound():
    ep = CAT.variety("e_plane")
    for p in range(3, 100):
        if not is_prime(p) or p in ep.bad_primes:
            continue
        a = elliptic_ap(ep, p)
        assert a * a <= 4 * p, (p, a)


def test_elliptic_ap_guards():
    ep = CAT.variety("e_plane")
    with pytest.raises(RefusalError):
        elliptic_ap(ep, 5)
    # a degree is the int 1 or 2: 2.0 once gave the float -10.0 and True
    # counted over F_7
    for degree in (True, 2.0, "1", 3):
        for scan in (elliptic_ap, nodal_curve):
            with pytest.raises(ValidationError,
                               match=re.escape(f"not {degree!r}") + "$"):
                scan(ep, 7, degree)
    with pytest.raises(ValidationError):
        elliptic_ap(CAT.variety("schoen_x"), 7)
    with pytest.raises(ValidationError):
        elliptic_ap(ep, 9)
    with pytest.raises(ValidationError):
        elliptic_ap(ep, 89, degree=2)       # F_{p^2} charts beyond the bound
    cusp = VarietySpec("cusp", Ambient("projective", n=2),
                       ((Monomial(1, (3, 0, 0)), Monomial(-1, (0, 2, 1))),),
                       1, frozenset({2, 3}), "test")
    for degree in (1, 2):
        with pytest.raises(ValidationError, match="not a node"):
            elliptic_ap(cusp, 7, degree)


def test_elliptic_ap_reads_the_declared_normalization(monkeypatch):
    # with a declared normalization at an odd good prime elliptic_ap runs
    # no node search at either degree; the cusp, the nodal cubics and p = 2
    # still scan, and every refusal comes before any scan
    ep = CAT.variety("e_plane")
    want = {(p, d): nodal_curve(ep, p, d).ap for p in (3, 7) for d in (1, 2)}
    want[101, 1] = nodal_curve(ep, 101).ap

    class Scanned(Exception):
        pass

    def scan(*args, **kwargs):
        raise Scanned

    monkeypatch.setattr(lefschetz, "nodal_curve", scan)
    monkeypatch.setattr(lefschetz, "_singular_scan", scan)
    monkeypatch.setattr(catalog, "_singular_scan", scan)
    for (p, d), ap in want.items():
        assert elliptic_ap(ep, p, d) == ap, (p, d)
    cusp = VarietySpec("cusp", Ambient("projective", n=2),
                       ((Monomial(1, (3, 0, 0)), Monomial(-1, (0, 2, 1))),),
                       1, frozenset({2, 3}), "test")
    nodal = _plane_cubic("nodal_cubic", (2, 0, 1), (1, 1, 1), (0, 2, 1),
                         (3, 0, 0))
    for spec, p in ((cusp, 7), (nodal, 7), (nodal, 2),
                    (dataclasses.replace(ep, bad_primes=frozenset({5})), 2)):
        for d in (1, 2):
            with pytest.raises(Scanned):
                elliptic_ap(spec, p, d)
    with pytest.raises(RefusalError, match="5 is a bad prime"):
        elliptic_ap(ep, 5)
    with pytest.raises(ValidationError, match="9 is not prime"):
        elliptic_ap(ep, 9)
    for degree in (True, 2.0, "1", 3):
        with pytest.raises(ValidationError,
                           match=re.escape(f"not {degree!r}") + "$"):
            elliptic_ap(ep, 7, degree)
    # the oracle's F_{p^2} chart budget bounds degree 2, though the read
    # itself is O(p)
    for p in (89, 101):
        with pytest.raises(ValidationError,
                           match="the largest prime it accepts is 83$"):
            elliptic_ap(ep, p, 2)
    # over F_p declared_curve's Weierstrass budget bounds elliptic_ap, as it
    # bounds ap --variety
    with pytest.raises(ValidationError,
                       match="the largest prime it accepts is 3999971$"):
        elliptic_ap(ep, 4000037)


def _plane_cubic(vid, *terms):
    eq = tuple(Monomial(1, e) for e in terms)
    return VarietySpec(vid, Ambient("projective", n=2), (eq,), 1,
                       frozenset({3}), "test")


def test_elliptic_ap_nodal_cubics():
    # a rational nodal cubic has normalization P^1, so a_p = 0 whether its
    # node splits or not; in characteristic 2 every node has b^2 - 4ac = 1
    # and splitting is decided by ac (x^2 + xy + y^2 has no root over F_2)
    nonsplit = _plane_cubic("nodal_cubic", (2, 0, 1), (1, 1, 1), (0, 2, 1),
                            (3, 0, 0))
    split = _plane_cubic("split_cubic", (1, 1, 1), (3, 0, 0), (0, 3, 0))
    for p in (2, 5, 7, 11, 13):
        assert elliptic_ap(nonsplit, p) == 0, p
    assert elliptic_ap(split, 2) == 0
    with pytest.raises(ValidationError):
        elliptic_ap(nonsplit, 2, degree=2)

