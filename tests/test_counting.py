"""Point counts pinned against independently computed values."""
import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from frobtrace.catalog import (Ambient, InvolutionSpec, Monomial, VarietySpec,
                               _grid, _zeros, catalog_from_json, load_catalog,
                               singular_points)
from frobtrace import catalog, cli, counting
from frobtrace.counting import (count, count_double_cover, count_projective,
                                count_torus, count_twisted, count_weighted,
                                check_preserves, read_records, write_records)
from frobtrace.errors import FrobtraceError, RefusalError, ValidationError
from frobtrace.ffield import is_prime, log_tables, nonresidue
from frobtrace.lefschetz import declared_curve, nodal_curve
from oracles import (TORUS_AT, _double_cover_reference, _percent_pass,
                     full_grid, torus_dense, torus_eliminated)

CAT = load_catalog()

SCHOEN_N = {3: 36, 7: 401, 11: 3300, 13: 2421, 17: 5146, 19: 7256,
            23: 12581, 29: 25071, 31: 50675}
SCHOEN_NT = {3: 36, 7: 401, 11: 1452, 13: 2421, 17: 5146, 19: 9840}
HM_N = {3: 41, 7: 406, 11: 1401}
CS_N = {3: 40, 7: 400, 11: 3076}
QUOTIENT_W = {3: 40, 7: 409, 11: 2388}
SCHOEN_Y_LARGE = {211: (10481550, 9433302), 419: (73729356, 75127140),
                  421: (79011175, 74797807)}
SMALL_PRIMES = [p for p in range(3, 24) if is_prime(p)]


def dense(vid):
    """The catalog variety without its count model: the dense oracle."""
    return dataclasses.replace(CAT.variety(vid), count_model=None)


def test_schoen_counts():
    sx = CAT.variety("schoen_x")
    for p, want in SCHOEN_N.items():
        assert count_projective(sx, p).count == want


def test_schoen_histogram_matches_dense():
    # without its count model the generic chart counter runs; p = 5 has
    # lambda = 5 mu = 0 on every row of the kernel
    sx = CAT.variety("schoen_x")
    for p in SMALL_PRIMES:
        assert count_projective(dense("schoen_x"), p).count == \
            count_projective(sx, p).count, p


def test_consani_scholten_kernel_matches_dense():
    cs = CAT.variety("consani_scholten")
    for p in SMALL_PRIMES:
        rec = count_projective(cs, p)
        assert rec.count == count_projective(dense(cs.id), p).count, p
        assert rec.chunk_count == 1
    assert count_projective(cs, 37).count == 52060


def test_torus_count_matches_dense():
    # the dense oracle at every prime to 41, and counts pinned at 41, 101
    # and 157, the largest prime the torus budget accepts
    for p in [2] + [q for q in range(3, 42) if is_prime(q)]:
        for a, t in TORUS_AT:
            assert count_torus(a, t, p).count == \
                torus_dense(a, t, p), (a, t, p)
    for p, want in ((41, 61411), (101, 971611), (157, 3744621)):
        assert count_torus((1, 1, 1, 1, 1), 25, p).count == want, p


def test_torus_count_matches_elimination():
    # the elimination oracle past the dense one's reach, on all four pairs
    for p in (43, 53, 67):
        for a, t in TORUS_AT:
            assert count_torus(a, t, p).count == \
                torus_eliminated(a, t, p), (a, t, p)


def test_torus_count_is_bounded(monkeypatch):
    # the int32 sums hold while (p - 1)^4 < 2^31, so the count refuses 223
    # (222^4 > 2^31) even with the cell budget lifted, also under python
    # -O, before any histogram; 211 is counted
    monkeypatch.setattr(counting, "_MAX_TORUS_CELLS", 10 ** 8)
    assert count_torus((1, 1, 1, 1, 1), 25, 211).count > 0
    tracemalloc.start()
    try:
        with pytest.raises(FrobtraceError, match="p=223: .* reach 2\\^31"):
            count_torus((1, 1, 1, 1, 1), 25, 223)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16, peak


def test_torus_count_memory():
    # two p^2 histograms and a 2p x 2p window table: under 2 MB at 157,
    # where the elimination's (p - 1)^3 cells took about 190 MB
    count_torus((1, 1, 1, 1, 1), 25, 157)
    tracemalloc.start()
    try:
        assert count_torus((1, 1, 1, 1, 1), 25, 157).count == 3744621
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


def test_torus_cell_budget():
    # 157 is the largest prime inside the budget; 163 is refused before any
    # cell is allocated
    assert 156 ** 3 <= counting._MAX_TORUS_CELLS < 162 ** 3
    with pytest.raises(ValidationError, match="cells.* accepts is 157$"):
        count_torus((1, 1, 1, 1, 1), 25, 163)


def test_torus_entry_equation_matches_count_torus():
    # count() counts hulek_verrill from its known (a, t) and never reads
    # the 21-monomial equation the catalog stores; its zeros on the torus
    # grid (X5 = 1, no coordinate 0) must be the same count; the dense
    # oracle's equation at that (a, t) is the stored one, term for term
    hv = CAT.variety("hulek_verrill")
    a, t = hv.known["a"], hv.known["t"]
    assert counting._torus_equation(a, t) == hv.equations[0]
    assert len(hv.equations[0]) == 21
    for p, want in ((3, 11), (5, 101), (7, 201), (11, 811), (13, 1341)):
        on = _zeros(hv.equations, _grid(p, [None] * 4 + [1]), p)
        assert int(on[1:, 1:, 1:, 1:].sum()) == want, p
        assert count_torus(a, t, p).count == want, p


def _next_prime(q):
    q += 1
    while not is_prime(q):
        q += 1
    return q


# every cell budget: its cells as a function of p, its limit, a count that
# meets it, and the largest prime it accepts
CELL_BUDGETS = [
    ("dense chart of P^4", lambda p: p ** 4, counting._MAX_DENSE_TOTAL,
     lambda p: count_projective(CAT.variety("hm_quintic"), p), 151),
    ("double cover, charts of P^3", lambda p: p ** 3, counting._MAX_DENSE_TOTAL,
     lambda p: count_double_cover(CAT.variety("double_octic_template"), p), 839),
    ("weighted orbits, P(1,1,1,2,2,2)", lambda p: p ** 6,
     counting._MAX_DENSE_TOTAL,
     lambda p: count_weighted(dense("schoen_quotient"), p), 29),
    ("degree-2 chart of P^4", lambda p: p ** 8, catalog._MAX_EXT_CELLS,
     lambda p: count_projective(CAT.variety("schoen_x"), p, degree=2), 7),
    ("degree-2 chart of P^2", lambda p: p ** 4, catalog._MAX_EXT_CELLS,
     lambda p: count_projective(CAT.variety("e_plane"), p, degree=2), 83),
    ("node search on P^4", lambda p: p ** 3, catalog._MAX_SCAN_CELLS,
     lambda p: singular_points(CAT.variety("schoen_x"), p), 337),
    ("two-group kernel", lambda p: p ** 2, counting._MAX_HIST_CELLS,
     lambda p: count_projective(CAT.variety("schoen_y"), p), 1999),
    ("torus count", lambda p: (p - 1) ** 3, counting._MAX_TORUS_CELLS,
     lambda p: count_torus((1, 1, 1, 1, 1), 25, p), 157),
    ("Weierstrass a_p", lambda p: p, catalog._MAX_SLAB_CELLS,
     lambda p: declared_curve(CAT.variety("e_plane"), p), 3999971),
]


def test_cell_budgets_name_the_largest_accepted_prime():
    # each budget is met at the first prime past the one it names, and the
    # refusal comes before any table: the peak stays under 1 MB, where the
    # smallest table of these paths at that prime takes over 30 MB
    for name, cells, limit, run, q in CELL_BUDGETS:
        over = _next_prime(q)
        assert cells(q) <= limit < cells(over), name
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError,
                               match=f"cells.* accepts is {q}$"):
                run(over)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (name, peak)


def test_weierstrass_budget_accepts_the_prime_it_names():
    # the budget counts at 3999971 too, not only refuses the next prime:
    # the character table there is 32 MB, built in numpy and not kept
    assert declared_curve(CAT.variety("e_plane"), 3999971) == \
        (3998210, 5, 0, 1767)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.integers(-50, 50), min_size=5, max_size=5),
       st.integers(-50, 50), st.sampled_from((3, 5, 7, 11, 13)))
def test_torus_kernel_random(a, t, p):
    # an equation whose every coefficient vanishes mod p is refused
    if all(m.coefficient % p == 0 for m in counting._torus_equation(a, t)):
        with pytest.raises(ValidationError, match="vanishes identically"):
            count_torus(a, t, p)
    else:
        assert count_torus(a, t, p).count == torus_dense(a, t, p)


def test_schoen_histogram_large_primes():
    # F_p^* has three classes modulo cubes at 211 and 421 and one at 419,
    # so the counter builds four rows of Phi there and two here
    sy = CAT.variety("schoen_y")
    iy = CAT.involution("iota_y")
    for p, (n, nt) in SCHOEN_Y_LARGE.items():
        assert count_projective(sy, p).count == n
        assert count_twisted(sy, iy, p).count == nt


def test_schoen_histogram_cell_budget():
    # 2003 is the first prime over the budget; refused before any p^2
    # table is allocated, naming 1999
    assert 1999 ** 2 <= counting._MAX_HIST_CELLS < 2003 ** 2
    with pytest.raises(ValidationError, match="cells.* accepts is 1999$"):
        count_projective(CAT.variety("schoen_y"), 2003)
    with pytest.raises(ValidationError, match="cells.* accepts is 1999$"):
        count_twisted(CAT.variety("schoen_y"), CAT.involution("iota_y"), 2003)


def test_schoen_histogram_memory():
    # the orbit convolution (schoen_y's model, so its twist, and the
    # quotient's) holds no p^2-cell array, only O(p) rows and bases: 0.64
    # p^2 8 bytes at 421 and 0.089 at 1999 measured in a fresh process, its
    # log tables included.  The uncoupled grid (consani_scholten's) keeps
    # two value arrays, r1 at s = 0 and 1, as r2 = -r1 reads them at neg,
    # and reads F off r1's histogram: 2.15 p^2 8 bytes at 421 measured
    # (2.46 with a key array gathered in chunks, 4.49 when r2 kept arrays
    # of its own).  The coupled grid gathers its keys and Phi rows one chi
    # block's rows at a time: schoen_y's pass at 149, below the
    # convolution, keeps r and m (shared by both groups) and peaks at 3.88,
    # and a model with a constant in m1 (the convolution does not admit
    # it; the `constant` model of the layout test below) keeps four value
    # arrays and peaks at 5.07 at 1009, where gathers over the whole grid
    # read 6.06.  The pass cache is cleared
    # before each run, so each run makes a full pass rather than reading
    # the pass of the run before it
    sy = CAT.variety("schoen_y")
    iy = CAT.involution("iota_y")
    r1 = (Monomial(1, (4, 0, 0)), Monomial(1, (0, 2, 0)),
          Monomial(2, (0, 0, 4)))
    constant = (((r1, (Monomial(1, (2, 0, 0)), Monomial(1, (0, 0, 0)))),
                 ((Monomial(1, (4, 0, 0)),), (Monomial(1, (0, 1, 0)),))),
                3, (2, 2), 1009)
    for run, p, bound in (
            (lambda: count_projective(sy, 421), 421, 1.0),
            (lambda: count_twisted(sy, iy, 421), 421, 1.0),
            (lambda: count_weighted(CAT.variety("schoen_quotient"), 421),
             421, 1.0),
            (lambda: count_projective(CAT.variety("consani_scholten"), 421),
             421, 2.3),
            (lambda: count_projective(sy, 149), 149, 4.2),
            (lambda: counting._block_pass.__wrapped__(*constant), 1009, 5.5),
            (lambda: count_projective(sy, 1999), 1999, 0.1)):
        counting._block_pass.cache_clear()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * p ** 2 * 8, (p, peak / (p ** 2 * 8), bound)


def _served_counts(run, reference):
    """run() with the kernel's passes from the reference, or from a fresh
    cache of counting._block_pass."""
    counting._block_pass.cache_clear()
    with pytest.MonkeyPatch.context() as m:
        if reference:
            m.setattr(counting, "_block_pass", lru_cache(None)(_percent_pass))
        return run()


@pytest.mark.parametrize("p", [211, 419, 421, 1009, 1999])
def test_kernel_matches_percent_reference(p):
    # every count a pass serves (straight, through schoen_x's map, twisted
    # by iota_y, chi-weighted, uncoupled) equals the reference's; 419 has
    # one class modulo cubes, 211, 421, 1009 and 1999 three, and 1999 is
    # the largest prime the cell budget accepts
    def run():
        return [f(p).count for f in SHARED_PASS_COUNTS.values()]

    got = _served_counts(run, False)
    assert got == _served_counts(run, True)
    if p == 1999:
        counts = dict(zip(SHARED_PASS_COUNTS, got))
        assert counts["schoen_y"] == 7992106001
        assert counts["consani_scholten"] == 8007935324


def test_kernel_tables_are_bounded(monkeypatch):
    # the pass checks its O(p) tables before any gather, also under python
    # -O: L and E must be inverse bijections of F_p^* and L[0] the sentinel
    # 2q.  A log table whose sentinel runs past the 3q key bins of a row or
    # past E3 = (E, E, 0), a negative log or an exp table with a value past
    # p would otherwise be clipped or binned into a wrong count without a
    # word, or shift a row of the orbit convolution.  At 7 every model takes
    # the grid; with the convolution from 7 on, schoen_y and the quotient
    # take it, consani_scholten (uncoupled, no Phi levels) the grid
    exp, log = log_tables(7)
    orbits, grid = ("schoen_y", "schoen_quotient"), ("consani_scholten",)
    bins, e3, past = log.copy(), log.copy(), exp.copy()
    bins[0], e3[0], past[3] = 3 * 6, 2 * 6 + 1, 7
    for start in (counting._ORBIT_FROM, 7):
        monkeypatch.setattr(counting, "_ORBIT_FROM", start)
        for logs, vids in (((exp, bins), orbits + grid), ((exp, e3), orbits),
                           ((past, log), orbits + grid),
                           ((exp, -log), orbits + grid)):
            for vid in vids:
                counting._block_pass.cache_clear()
                monkeypatch.setattr(counting, "log_tables", lambda p: logs)
                with pytest.raises(FrobtraceError,
                                   match="p=7 leave their bounds"):
                    count(CAT.variety(vid), 7)
                assert counting._block_pass.cache_info().currsize == 0
        monkeypatch.undo()


def _weighted_part(draw, w, D, lead=None):
    """A weighted-homogeneous polynomial of degree D in (a, b), weights
    (1, w), a^D first, with coefficients that may vanish mod p; lead, when
    given, is the coefficient of a^D."""
    return tuple(Monomial(lead if lead is not None and not j
                          else draw(st.integers(-40, 40)), (D - w * j, j, 0))
                 for j in range(D // w + 1) if not j or draw(st.booleans()))


@st.composite
def even_models(draw):
    """(groups, k, weights, p) of a random two-group model with even
    weights: r1 a part of degree D plus c s^D, r2 a part of degree D, m1 a
    part of lower degree plus a constant, m2 a part of lower degree,
    coupled or not."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    weights = tuple(draw(st.sampled_from((2, 4, 6))) for _ in range(2))
    D = draw(st.integers(2, 9))
    r1 = _weighted_part(draw, weights[0], D) + (
        Monomial(draw(st.integers(-40, 40)), (0, 0, D)),)
    r2 = _weighted_part(draw, weights[1], D)
    m1, m2 = (_weighted_part(draw, w, draw(st.integers(1, D - 1)))
              for w in weights)
    m1 += (Monomial(draw(st.integers(-3, 3)), (0, 0, 0)),)
    return ((r1, m1), (r2, m2)), draw(st.integers(0, p - 1)), weights, p


@st.composite
def convolution_models(draw):
    """(groups, k, weights, p) of a random coupled model that the orbit
    convolution counts: even weights, r1 a part of degree D plus c s^D,
    either of which may vanish mod p, r2 a part of degree D and m1 and m2
    parts of lower degree without a constant, with k and the coefficients
    of a^D in r2 and a^d in m2 prime to p."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13, 31, 37)))
    unit = st.integers(1, p - 1)
    weights = tuple(draw(st.sampled_from((2, 4, 6))) for _ in range(2))
    D = draw(st.integers(2, 9))
    r1 = _weighted_part(draw, weights[0], D) + (
        Monomial(draw(st.just(0) | st.integers(-40, 40)), (0, 0, D)),)
    r2 = _weighted_part(draw, weights[1], D, draw(unit))
    m1 = _weighted_part(draw, weights[0], draw(st.integers(1, D - 1)))
    m2 = _weighted_part(draw, weights[1], draw(st.integers(1, D - 1)),
                        draw(unit))
    return ((r1, m1), (r2, m2)), draw(unit), weights, p


def orbit_spy(monkeypatch, start=3):
    """The degrees (D, d) of r2 and m2 of each pass that runs the orbit
    convolution, as run, with the convolution taken from the prime start
    on (counting._ORBIT_FROM)."""
    seen, convolution = [], counting._orbit_convolution

    def spy(r1, m1, r2, m2, *args):
        seen.append((r2[1], m2[1]))
        return convolution(r1, m1, r2, m2, *args)

    monkeypatch.setattr(counting, "_orbit_convolution", spy)
    monkeypatch.setattr(counting, "_ORBIT_FROM", start)
    return seen


_SCHOEN_PARTS = (Monomial(1, (5, 0, 0)), Monomial(10, (3, 1, 0)),
                 Monomial(5, (1, 2, 0)))
_SCHOEN_M = (Monomial(1, (2, 0, 0)), Monomial(-1, (0, 1, 0)))
_SCHOEN_HALVED = ((_SCHOEN_PARTS + (Monomial(16, (0, 0, 5)),), _SCHOEN_M),
                  (_SCHOEN_PARTS, _SCHOEN_M))


@settings(max_examples=150, deadline=None, database=None)
@given(convolution_models())
@example(((((Monomial(1, (2, 0, 0)), Monomial(3, (0, 1, 0)),
             Monomial(1, (0, 0, 2))), (Monomial(1, (1, 0, 0)),)),
           ((Monomial(2, (2, 0, 0)),), (Monomial(1, (1, 0, 0)),))),
          1, (2, 2), 3))
# schoen_y's halved groups: three classes modulo cubes at 13 and 211
@example((_SCHOEN_HALVED, 8, (2, 2), 13))
@example((_SCHOEN_HALVED, 206, (2, 2), 211))
@example((((_SCHOEN_PARTS + (Monomial(16, (0, 0, 5)),), _SCHOEN_M),
           (_SCHOEN_PARTS, (Monomial(1, (2, 0, 0)),))), 8, (2, 2), 13))
# r2 = a^4 - a^2 b and m2 = a^2 - b both vanish on the row b' = 1; n = 2
@example(((((Monomial(1, (4, 0, 0)), Monomial(3, (0, 0, 4))),
            (Monomial(1, (2, 0, 0)),)),
           ((Monomial(1, (4, 0, 0)), Monomial(-1, (2, 1, 0))),
            (Monomial(1, (2, 0, 0)), Monomial(-1, (0, 1, 0))))),
          1, (2, 2), 7))
# no s-term in r1, so c = 0; e = 5 and n = 1 at 7
@example(((((Monomial(1, (6, 0, 0)), Monomial(2, (2, 2, 0))),
            (Monomial(1, (2, 0, 0)), Monomial(-1, (0, 1, 0)))),
           ((Monomial(1, (6, 0, 0)),), (Monomial(1, (1, 0, 0)),))),
          3, (2, 2), 7))
# c = 0 with n = 2 at 7: group 1's keys are -x t^D1 T^-D along its rows
@example(((((Monomial(1, (4, 0, 0)), Monomial(1, (2, 1, 0))),
            (Monomial(1, (2, 0, 0)),)),
           ((Monomial(1, (4, 0, 0)),), (Monomial(1, (0, 1, 0)),))),
          1, (2, 2), 7))
# r1 is its s-term alone: every key of group 1 is -c T^-D or lam = 0
@example(((((Monomial(1, (0, 0, 4)),), (Monomial(1, (0, 1, 0)),)),
           ((Monomial(1, (4, 0, 0)), Monomial(1, (0, 2, 0))),
            (Monomial(1, (2, 0, 0)),))), 2, (2, 2), 5))
def test_orbit_pass_matches_percent_pass(model):
    # the orbit convolution keeps each chi block of the grid, so its block
    # matrices agree with the percent reference's, which shares no code
    # with it, at every p, with one class modulo (D - d)-th powers or more,
    # on rows where r2 or m2 or both vanish at a = 1, and with r1 without a
    # constant or without a part mod p; a spy requires the convolution
    with pytest.MonkeyPatch.context() as m:
        seen = orbit_spy(m)
        got = counting._block_pass.__wrapped__(*model)
        assert seen
    assert got == _percent_pass(*model)


@settings(max_examples=60, deadline=None, database=None)
@given(even_models())
# m1 = m2 + 2 shares m2's cells; a0 where only group 2's m differs
@example((((_SCHOEN_PARTS + (Monomial(16, (0, 0, 5)),),
            _SCHOEN_M + (Monomial(2, (0, 0, 0)),)),
           (_SCHOEN_PARTS, _SCHOEN_M)), 8, (2, 2), 13))
def test_even_models_with_a_constant_in_m_take_the_grid(model):
    # lam = k (m1 + d1) is no monomial along an orbit when d1 != 0 mod p,
    # so such a model takes the grid; an uncoupled one (k = 0 mod p, no Phi
    # levels) runs no convolution either; whichever layout runs, the pass
    # equals the percent reference
    (_, (*_, const)), _ = model[0]
    with pytest.MonkeyPatch.context() as m:
        seen = orbit_spy(m)
        got = counting._block_pass.__wrapped__(*model)
    if const.coefficient % model[3] or not model[1] % model[3]:
        assert not seen
    assert got == _percent_pass(*model)


def test_pass_layout_is_read_off_the_declared_model(monkeypatch):
    # from counting._ORBIT_FROM on, schoen_y, through schoen_x's map and
    # its twist, and the quotient run the orbit convolution, and below it
    # the grid; consani_scholten (weight 1, five homogeneous parts of r at
    # s = 1) takes the grid at every prime, and so do an even model with an
    # odd weight, with an s-term of lower degree in r1 or with a constant in
    # m1
    start = counting._ORBIT_FROM
    below = max(q for q in range(3, start) if is_prime(q))
    seen = orbit_spy(monkeypatch, start)
    for vid, orbits in (("schoen_x", True), ("schoen_y", True),
                        ("schoen_quotient", True),
                        ("consani_scholten", False)):
        for p, on in ((start, orbits), (below, False)):
            counting._block_pass.cache_clear()
            seen.clear()
            count(CAT.variety(vid), p)
            assert bool(seen) == on, (vid, p)
    monkeypatch.setattr(counting, "_ORBIT_FROM", 3)
    model = ((((Monomial(1, (4, 0, 0)), Monomial(1, (0, 2, 0)),
                Monomial(2, (0, 0, 4))), (Monomial(1, (2, 0, 0)),)),
              ((Monomial(1, (4, 0, 0)),), (Monomial(1, (0, 1, 0)),))),
             3, (2, 2), 7)
    groups = model[0]
    odd = (groups, 3, (2, 1), 7)
    mixed = (((groups[0][0] + (Monomial(1, (1, 0, 3)),), groups[0][1]),
              groups[1]), 3, (2, 2), 7)
    constant = (((groups[0][0], groups[0][1] + (Monomial(1, (0, 0, 0)),)),
                 groups[1]), 3, (2, 2), 7)
    for args, orbits in ((model, True), (odd, False), (mixed, False),
                         (constant, False)):
        seen.clear()
        got = counting._block_pass.__wrapped__(*args)
        assert bool(seen) == orbits, args
        assert got == _percent_pass(*args)


def test_uncoupled_even_models_fold_at_every_prime(monkeypatch):
    # an uncoupled model whose halved groups have even weights and
    # homogeneous parts takes the O(p) folds at every odd prime, below
    # counting._ORBIT_FROM too, where only the convolution waits: a spy
    # sees _fold run, and the evaluator makes no array past the 2p cells
    # of a = 0 and 1.  Its counts equal the percent reference's, and at 13
    # the dense path's
    spec = _pair_catalog(((1, (3, 0, 0)), (2, (1, 2, 0)), (1, (0, 0, 3))),
                         ((1, (3, 0, 0)), (-1, (1, 2, 0))))
    fold, evaluate = counting._fold, counting._eval_mono_list
    folds, cells = [], []

    def evaluated(*args):
        v = evaluate(*args)
        cells.append(v.size)
        return v

    monkeypatch.setattr(counting, "_fold",
                        lambda *a, **kw: folds.append(a[3]) or fold(*a, **kw))
    monkeypatch.setattr(counting, "_eval_mono_list", evaluated)
    got = {}
    for p in (13, 149):
        counting._block_pass.cache_clear()
        folds.clear()
        cells.clear()
        got[p] = count_projective(spec, p).count
        assert folds and set(folds) == {p} and max(cells) <= 2 * p, p
    monkeypatch.undo()
    for p, n in got.items():
        assert _served_counts(lambda: count_projective(spec, p).count,
                              True) == n, p
    assert count_projective(dataclasses.replace(spec, count_model=None),
                            13).count == got[13]


def test_orbit_convolution_pins_the_split_primes():
    # the counts the grid-era kernel made at the split primes 421 and 1009
    # (three classes modulo cubes): schoen_y, its twist by iota_y and the
    # quotient's weighted count, all from one orbit convolution per prime
    sy, iy = CAT.variety("schoen_y"), CAT.involution("iota_y")
    sq = CAT.variety("schoen_quotient")
    with pytest.MonkeyPatch.context() as m:
        seen = orbit_spy(m, counting._ORBIT_FROM)
        counting._block_pass.cache_clear()
        for p, want in ((421, (79011175, 74797807, 76904913)),
                        (1009, (1028288566, 1036417070, 1032353828))):
            assert (count_projective(sy, p).count,
                    count_twisted(sy, iy, p).count,
                    count_weighted(sq, p).count) == want, p
    assert seen == [(5, 2), (5, 2)]


def test_orbit_convolution_bins_are_bounded(monkeypatch):
    # the convolution's rows hold 3 n (G + n + 6) Q bins: 3 3 24 140 =
    # 30240 for schoen_y at 421 (n = 3 classes modulo cubes, G = 15, Q =
    # 140); past counting._MAX_ORBIT_BINS it refuses before any allocation
    # and caches nothing
    counting._block_pass.cache_clear()
    monkeypatch.setattr(counting, "_MAX_ORBIT_BINS", 30239)
    with pytest.raises(RefusalError, match="p=421: 30240 bins for D - d = 3"):
        count_projective(CAT.variety("schoen_y"), 421)
    assert counting._block_pass.cache_info().currsize == 0
    monkeypatch.setattr(counting, "_MAX_ORBIT_BINS", 30240)
    assert count_projective(CAT.variety("schoen_y"), 421).count == \
        SCHOEN_Y_LARGE[421][0]


def test_orbit_convolution_is_checked(monkeypatch):
    # a convolved value 0.3 off its integer, or a whole count off, raises
    # FrobtraceError and caches no pass, also under python -O; the check
    # reads the float values before rounding and each block's totals after
    sy = CAT.variety("schoen_y")
    irfft = counting.irfft
    for off in (0.3, 1.0):
        def skewed(x, size, off=off):
            out = irfft(x, size)
            out[0, 0] += off
            return out

        counting._block_pass.cache_clear()
        monkeypatch.setattr(counting, "irfft", skewed)
        with pytest.raises(FrobtraceError,
                           match="orbit convolution at p=421 is not exact"):
            count_projective(sy, 421)
        assert counting._block_pass.cache_info().currsize == 0
        monkeypatch.undo()
    assert count_projective(sy, 421).count == SCHOEN_Y_LARGE[421][0]
    # the a priori bound, 2.2e-11 at 151, refuses a slack below it before
    # either transform runs and before any pass is cached

    def unreached(*args):
        raise AssertionError("a transform ran")

    counting._block_pass.cache_clear()
    monkeypatch.setattr(counting, "rfft", unreached)
    monkeypatch.setattr(counting, "irfft", unreached)
    monkeypatch.setattr(counting, "_FFT_SLACK", 1e-12)
    with pytest.raises(FrobtraceError, match="p=151: its rounding bound "
                       "[0-9.e-]+ is not below 1e-12$"):
        count_projective(sy, 151)
    assert counting._block_pass.cache_info().currsize == 0


def test_twisted_counts():
    sy = CAT.variety("schoen_y")
    iy = CAT.involution("iota_y")
    for p, want in SCHOEN_NT.items():
        assert count_twisted(sy, iy, p).count == want


def test_twisted_substitution_matches_engine():
    iy = CAT.involution("iota_y")
    engine = CAT.variety("schoen_y")
    for p in SMALL_PRIMES:
        assert count_twisted(dense("schoen_y"), iy, p).count == \
            count_twisted(engine, iy, p).count, p


def test_other_quintic_counts():
    hm = CAT.variety("hm_quintic")
    cs = CAT.variety("consani_scholten")
    for p, want in HM_N.items():
        assert count_projective(hm, p).count == want
    for p, want in CS_N.items():
        assert count_projective(cs, p).count == want


def test_degree_two_counts():
    assert count_projective(CAT.variety("schoen_x"), 3, degree=2).count == 816
    assert count_projective(CAT.variety("e_plane"), 3, degree=2).count == 14
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("e_plane"), 3, degree=3)
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("e_plane"), 2, degree=2)


DEGREE_TWO = {("schoen_x", 7): 120701, ("hm_quintic", 7): 122556,
              ("consani_scholten", 7): 128864, ("e_plane", 31): 1015}


def full_grid_ext(spec, p):
    """#X(F_{p^2}) from every cell of every chart of _charts(p, nv, 2): the
    oracle of the conjugation fold."""
    n = nonresidue(p)
    eqs = [f for eq in spec.equations for f in catalog._restrict(eq, n)]
    return sum(int(np.count_nonzero(_zeros(eqs, _grid(p, f), p)))
               for f in catalog._charts(p, spec.ambient.nvars, 2))


def test_degree_two_fold_matches_full_grid():
    # each chart with a free coordinate runs on half its grid; the full
    # grid agrees for e_plane at every odd prime to 23 and for the
    # threefolds at 3 and 7, and the chunk list is the chart list
    e = CAT.variety("e_plane")
    for p in SMALL_PRIMES:
        assert count_projective(e, p, degree=2).count == full_grid_ext(e, p), p
    got = {("e_plane", 31): count_projective(e, 31, degree=2).count}
    for vid in ("schoen_x", "hm_quintic", "consani_scholten"):
        for p in (3, 7):
            rec = count_projective(CAT.variety(vid), p, degree=2)
            assert rec.count == full_grid_ext(CAT.variety(vid), p), (vid, p)
            assert rec.chunk_count == 5
            got[vid, p] = rec.count
    assert {key: got[key] for key in DEGREE_TWO} == DEGREE_TWO


@st.composite
def _small_systems(draw):
    """(spec, p): one or two random homogeneous equations on P^2 or P^3 at
    p in {3, 5, 7}, none vanishing mod p."""
    nv = draw(st.sampled_from((3, 4)))
    p = draw(st.sampled_from((3, 5, 7)))
    eqs = []
    for _ in range(draw(st.integers(1, 2))):
        deg = draw(st.integers(1, 4))
        terms = {}
        for _ in range(draw(st.integers(1, 5))):
            cuts = sorted(draw(st.integers(0, deg)) for _ in range(nv - 1))
            e = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
            terms[e] = draw(st.integers(-20, 20))
        assume(any(c % p for c in terms.values()))
        eqs.append([(c, e) for e, c in sorted(terms.items()) if c])
    return _spec(nv, *eqs), p


def _spec(nv, *eqs):
    """The variety in P^{nv-1} cut out by equations given as lists of
    (coefficient, exponents) terms; the chart loop never reads its bad
    primes."""
    return VarietySpec("case", Ambient("projective", n=nv - 1),
                       tuple(tuple(Monomial(c, e) for c, e in eq)
                             for eq in eqs),
                       nv - 1 - len(eqs), frozenset({2}), "test")


@settings(max_examples=80, deadline=None, database=None)
@given(_small_systems())
# x1 - x0, x2 - x0: the one point (1 : 1 : 1), at b1 = 0
@example((_spec(3, [(1, (0, 1, 0)), (-1, (1, 0, 0))],
                [(1, (0, 0, 1)), (-1, (1, 0, 0))]), 3))
# x0^2 + x1^2 + x2^2: a conic with points off b1 = 0 on every chart
@example((_spec(3, [(1, (2, 0, 0)), (1, (0, 2, 0)), (1, (0, 0, 2))]), 7))
# x0 x1 on P^3: zero on the whole plane x0 = 0 and on x1 = 0
@example((_spec(4, [(1, (1, 1, 0, 0))]), 5))
def test_degree_two_fold_random_systems(case):
    # chart by chart the fold equals the chart's full grid, on the charts
    # with two, three and one free coordinates and on (0 : ... : 0 : 1),
    # which has none and is counted on its one cell
    spec, p = case
    nv = spec.ambient.nvars
    n = nonresidue(p)
    eqs = [f for eq in spec.equations for f in catalog._restrict(eq, n)]
    free = set()
    for fixed in catalog._charts(p, nv, 2):
        full = int(np.count_nonzero(_zeros(eqs, _grid(p, fixed), p)))
        if None in fixed:
            assert counting._folded(eqs, fixed, p) == full, fixed
        free.add(fixed.count(None) // 2)
    assert {0, 1} <= free
    assert count_projective(spec, p, degree=2).count == full_grid_ext(spec, p)


def _charts_agree(spec, p):
    """Chart by chart, where _scaling plans the scaled root count, that
    count, and always _folded, equal the chart's full grid; returns the
    number of scaled charts."""
    eq = spec.equations[0]
    eqs = list(catalog._restrict(eq, nonresidue(p)))
    scaled = 0
    for fixed in catalog._charts(p, spec.ambient.nvars, 2):
        if None not in fixed:
            continue
        full = int(np.count_nonzero(_zeros(eqs, _grid(p, fixed), p)))
        assert counting._folded(eqs, fixed, p) == full, fixed
        plan = counting._scaling(eq, fixed.index(1) // 2, spec.ambient.nvars, p)
        if plan:
            assert counting._scaled_roots(plan, fixed, p) == full, fixed
            scaled += 1
    return scaled


def test_scaled_roots_match_the_fold_on_e_plane():
    # at every odd good prime to 23 both of e_plane's charts with a free
    # coordinate are counted from the scaled root tables, as _folded and
    # the full grid count them, and the total is nodal_curve's scan of the
    # same F_{p^2} points; pinned at 31 and at 83, the largest prime the
    # degree-2 budget accepts on P^2
    e = CAT.variety("e_plane")
    for p in SMALL_PRIMES:
        if p not in e.bad_primes:
            assert _charts_agree(e, p) == 2, p
            assert count_projective(e, p, degree=2).count == \
                nodal_curve(e, p, 2).points, p
    assert count_projective(e, 31, degree=2).count == 1015
    assert count_projective(e, 83, degree=2).count == 6974


def scaled_charts(monkeypatch):
    """(D, d) of each F_{p^2} chart counted by _scaled_roots from here on."""
    seen, run = [], counting._scaled_roots

    def spy(plan, fixed, p):
        seen.append(plan[1:3])
        return run(plan, fixed, p)

    monkeypatch.setattr(counting, "_scaled_roots", spy)
    return seen


def test_scaled_roots_are_chosen_by_exponents(monkeypatch):
    # e_plane's charts x0 = 1 (2 y^5 - 5 y^2 z^2 + 2 z^5 + 1, y taken
    # first) and x0 = 0, x1 = 1 (2 z^5 + 2) take the path, and so does a
    # copy under another id; with 2 x1 x2^4 for 2 x2^5, the top coefficient
    # 2 y of z^4 on x0 = 1 is not constant and y has four exponents, so
    # that chart falls back to the fold, while x0 = 0, x1 = 1 still scales
    seen = scaled_charts(monkeypatch)
    copy = dataclasses.replace(CAT.variety("e_plane"), id="e_copy")
    for p in (7, 11):
        seen.clear()
        assert count_projective(copy, p, degree=2).count == \
            full_grid_ext(copy, p), p
        assert seen == [(5, 2), (5, 0)], p
    other = _spec(3, [(1, (5, 0, 0)), (2, (0, 5, 0)), (2, (0, 1, 4)),
                      (-5, (1, 2, 2))])
    assert counting._scaling(other.equations[0], 0, 3, 7) is None
    seen.clear()
    assert count_projective(other, 7, degree=2).count == full_grid_ext(other, 7)
    assert seen == [(4, 0)]


def test_scaled_tables_are_bounded(monkeypatch):
    # the table checks the gather indices its logs can make before any
    # gather, also under python -O, and a table that raises is not cached
    exp, log = log_tables(7, 2)
    bad = log.copy()
    bad[0] = 7 ** 4
    counting._scaled_table.cache_clear()
    monkeypatch.setattr(counting, "log_tables", lambda p, degree=1: (exp, bad))
    with pytest.raises(FrobtraceError, match="p=7 leaves its bounds"):
        count_projective(CAT.variety("e_plane"), 7, degree=2)
    assert counting._scaled_table.cache_info().currsize == 0


@st.composite
def _trinomial_curves(draw):
    """(spec, p): alpha x0^(N-D) x2^D + beta(x0, x1) x2^d + gamma(x0, x1)
    on P^2 at p in {3, 7, 11, 13}, D > d >= 0, with beta empty (a binomial
    in x2) when d = 0; any coefficient, alpha too, may vanish mod p."""
    p = draw(st.sampled_from((3, 7, 11, 13)))
    big = draw(st.integers(1, 6))
    top = draw(st.integers(1, big))
    low = draw(st.integers(0, top - 1))
    coefficient = st.integers(-20, 20)
    terms = {(big - top, 0, top): draw(coefficient)}
    for deg in {low, 0}:
        for i in draw(st.lists(st.integers(0, big - deg), min_size=1,
                               max_size=3)):
            terms[i, big - deg - i, deg] = draw(coefficient)
    assume(any(c % p for c in terms.values()))
    return _spec(3, [(c, e) for e, c in sorted(terms.items()) if c]), p


@settings(max_examples=60, deadline=None, database=None)
@given(_trinomial_curves())
# x2^3 + x0 x1 x2 + x1^3: beta and gamma vanish at x1 = 0; gcd(2, 48) = 2
@example((_spec(3, [(1, (0, 0, 3)), (1, (1, 1, 1)), (1, (0, 3, 0))]), 7))
# x2^2 + x0 x1 x2 + x0^2 - x1^2: gcd(1, 8) = 1
@example((_spec(3, [(1, (0, 0, 2)), (1, (1, 1, 0)), (1, (2, 0, 0)),
                    (-1, (0, 2, 0))]), 3))
# x2^4 + 3 x1^3 x2 + x0^4 - x1^4: gamma vanishes where x1^4 = x0^4;
# gcd(3, 120) = 3
@example((_spec(3, [(1, (0, 0, 4)), (3, (0, 3, 1)), (1, (4, 0, 0)),
                    (-1, (0, 4, 0))]), 11))
# x2^5 + 2 x0^3 x1 x2 + x1^5: gcd(4, 168) = 4
@example((_spec(3, [(1, (0, 0, 5)), (2, (3, 1, 1)), (1, (0, 5, 0))]), 13))
# 7 x2^3 + x0 x1 x2 + x1^3 at 7: alpha = 0 mod p, the fold counts
@example((_spec(3, [(7, (0, 0, 3)), (1, (1, 1, 1)), (1, (0, 3, 0))]), 7))
# x2^3 + x0^2 x1: a binomial in x2
@example((_spec(3, [(1, (0, 0, 3)), (1, (2, 1, 0))]), 11))
def test_scaled_roots_random_curves(case):
    # chart by chart the scaled root count equals the fold and the full
    # grid wherever _scaling plans it, and so does the total
    spec, p = case
    _charts_agree(spec, p)
    assert count_projective(spec, p, degree=2).count == full_grid_ext(spec, p)


def _fixed_conic_correction(p):
    """Weighted points less Burnside orbits of schoen_y: the cone points
    with Y0 = Y1 = Y2 = 0 have stabilizer 2, not 1, in P(1,1,1,2,2,2), so
    each nonzero one adds one to the weighted total."""
    sq = CAT.variety("schoen_quotient")
    on = _zeros(sq.equations, _grid(p, [0, 0, 0, None, None, None]), p)
    extra = int(on.sum()) - 1
    assert extra % (p - 1) == 0
    return extra // (p - 1)


def test_weighted_counts_and_burnside():
    sq = CAT.variety("schoen_quotient")
    sy, iy = CAT.variety("schoen_y"), CAT.involution("iota_y")
    for p, want in QUOTIENT_W.items():
        assert count_weighted(sq, p).count == want
    for p in SMALL_PRIMES:
        if p <= 13:
            assert count_weighted(sq, p).count == \
                count_weighted(dense(sq.id), p).count, p
        # orbit count = average of straight and twisted counts, plus the
        # fixed conic Y3 Y4 = Y5^2, whose p + 1 points each merge two
        # orbits into one weighted point
        assert _fixed_conic_correction(p) == p + 1
        n, nt = count_projective(sy, p).count, count_twisted(sy, iy, p).count
        assert count_weighted(sq, p).count == (n + nt) // 2 + p + 1, p


def test_weighted_quotient_at_421():
    # the direct count that the Betti pair (85, 4) rests on, equal to the
    # Burnside assembly of the straight and twisted schoen_y counts
    p = 421
    n, nt = SCHOEN_Y_LARGE[p]
    rec = count_weighted(CAT.variety("schoen_quotient"), p)
    assert rec.count == 76904913 == (n + nt) // 2 + p + 1
    assert rec.chunk_count == 1


def test_weighted_ambient_alone():
    amb = Ambient("weighted_projective", weights=(1, 1, 2))
    spec = VarietySpec("p112", amb, (), 2, frozenset({2}), "test")
    assert count_weighted(spec, 3).count == 14


def test_torus_counts():
    assert count_torus((1, 1, 1, 1, 1), 25, 2).count == 1
    assert count_torus((1, 1, 1, 1, 1), 25, 3).count == 11
    assert count_torus((1, 1, 1, 1, 1), 25, 7).count == 201
    assert count_torus((1, 1, 1, 9, 9), 9, 7).count == 153
    assert count_torus((1, 1, 1, 1, 1), 25 + 7 * 2 ** 60, 7).count == 201
    with pytest.raises(ValidationError):
        count_torus((1, 1, 1), 25, 7)
    # 7 (X1 + ... + X5)(1/X1 + ... + 1/X5) = 35 vanishes mod 7, not mod 11
    with pytest.raises(ValidationError,
                       match=r"a=7,7,7,7,7;t=35\]: equation 0 vanishes .* 7$"):
        count_torus((7, 7, 7, 7, 7), 35, 7)
    assert count_torus((7, 7, 7, 7, 7), 35, 11).count == 730
    # a bool is no integer, though operator.index takes it
    for a, t in (((True, 1, 1, 1, 1), 25), ((1, 1, 1, 1, 1), True)):
        with pytest.raises(ValidationError, match="must be integers"):
            count_torus(a, t, 7)


def test_double_cover_counts():
    do = CAT.variety("double_octic_template")
    assert count_double_cover(do, 3).count == 41
    assert count_double_cover(do, 7).count == 407
    assert count_double_cover(do, 11).count == 1489
    with pytest.raises(ValidationError):
        count_double_cover(do, 2)


def test_double_cover_matches_full_grid_product():
    do = CAT.variety("double_octic_template")
    for p in SMALL_PRIMES:
        assert count_double_cover(do, p).count \
            == _double_cover_reference(do.equations, p), p
    assert count_double_cover(do, 101).count \
        == _double_cover_reference(do.equations, 101) == 1040503


def test_double_cover_slabs_share_their_forms(monkeypatch):
    # from 163 on the chart x0 = 1 of P^3 is cut into p slabs on x1; the
    # five planes of the template that do not read x1 are evaluated once on
    # it, not once per slab, and the chunk list stays: 1 + p + 2 + 1 chunks.
    # Each other chunk evaluates all eight planes.  The counts are the
    # per-slab counts' (163, 211)
    do = CAT.variety("double_octic_template")
    calls, run = [], counting._eval_mono_list

    def spy(eq, coords, p):
        calls.append(eq)
        return run(eq, coords, p)

    monkeypatch.setattr(counting, "_eval_mono_list", spy)
    for p, want in ((163, 4357321), (211, 9438649)):
        calls.clear()
        rec = count_double_cover(do, p)
        assert (rec.count, rec.chunk_count) == (want, p + 3)
        assert len(calls) == 5 + 3 * p + 3 * 8


def _linear_form(terms):
    return tuple(Monomial(c, tuple(int(i == v) for i in range(4)))
                 for v, c in terms)


# a linear form: one to four coordinates, coefficients that may vanish mod p
LINEAR_FORMS = st.dictionaries(st.integers(0, 3), st.integers(-26, 26),
                               min_size=1, max_size=4).map(
    lambda d: _linear_form(sorted(d.items())))


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(LINEAR_FORMS, min_size=1, max_size=4).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), max_size=8)),
       st.sampled_from([3, 5, 7, 11, 13]))
@example(forms=[_linear_form([(0, 1)])] * 8, p=3)     # no group reads x1..x3
@example(forms=[], p=5)
def test_double_cover_factored_sum_matches_full_grid(forms, p):
    # forms drawn from a small pool repeat; a form whose coefficients all
    # vanish mod p is refused, as is an odd number of forms
    spec = VarietySpec("cover", Ambient("double_cover_p3"), tuple(forms), 3,
                       frozenset({2}), "test")
    if len(forms) % 2:
        with pytest.raises(ValidationError, match="odd number"):
            count_double_cover(spec, p)
    elif any(all(m.coefficient % p == 0 for m in eq) for eq in forms):
        with pytest.raises(ValidationError, match="vanishes identically"):
            count_double_cover(spec, p)
    else:
        assert count_double_cover(spec, p).count \
            == _double_cover_reference(spec.equations, p)


def test_double_cover_refuses_other_branch_loci():
    x = [_linear_form([(v, 1)]) for v in range(4)]
    quadric = (Monomial(1, (0, 1, 1, 0)), Monomial(1, (2, 0, 0, 0)))
    for forms, why in [
            ((x[0],), "1 branch forms; an odd number"),   # once counted 67 at 3
            (tuple(x) * 2 + (x[0],), "9 branch forms; an odd number"),
            ((x[0], quadric), "branch form 1 is not homogeneous of degree 1"),
            ((quadric, x[1], x[2]), "branch form 0 is not homogeneous")]:
        spec = VarietySpec("cover", Ambient("double_cover_p3"), forms, 3,
                           frozenset({2}), "test")
        for p in (3, 7):
            with pytest.raises(ValidationError, match=why):
                count_double_cover(spec, p)


def test_double_cover_split_branch_formula():
    # w^2 = x0^8: the branch octic is an 8th power, so every point with
    # x0 != 0 splits and the branch locus is the plane x0 = 0
    spec = VarietySpec("w2_x0_8", Ambient("double_cover_p3"),
                       tuple((Monomial(1, (1, 0, 0, 0)),) for _ in range(8)),
                       3, frozenset({2}), "test")
    for p in (3, 7, 11):
        assert count_double_cover(spec, p).count == 2 * p ** 3 + p * p + p + 1


def test_ambient_dispatch_errors():
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("schoen_quotient"), 3)
    with pytest.raises(ValidationError):
        count_weighted(CAT.variety("schoen_x"), 3)
    with pytest.raises(ValidationError):
        count_double_cover(CAT.variety("schoen_x"), 3)
    with pytest.raises(ValidationError):
        count_projective(CAT.variety("schoen_x"), 10)


def test_count_dispatch_by_ambient():
    assert count(CAT.variety("schoen_x"), 3).count == SCHOEN_N[3]
    assert count(CAT.variety("schoen_x"), 3, degree=2).count == 816
    assert count(CAT.variety("schoen_quotient"), 3).count == QUOTIENT_W[3]
    assert count(CAT.variety("double_octic_template"), 3).count == 41
    hv = CAT.variety("hulek_verrill")
    got, want = count(hv, 7), count_torus(hv.known["a"], hv.known["t"], 7)
    assert (got.variety_id, got.count) == (want.variety_id, want.count)
    for vid in ("schoen_quotient", "double_octic_template", "hulek_verrill"):
        with pytest.raises(ValidationError):
            count(CAT.variety(vid), 3, degree=2)
    # a degree is the int 1 or 2: True == 1 once counted over F_p and
    # recorded "field_degree": true
    for vid in ("schoen_x", "schoen_quotient", "hulek_verrill"):
        for degree in (True, False, 2.0, "1"):
            with pytest.raises(ValidationError,
                               match=f"field_degree .* not {degree!r}$"):
                count(CAT.variety(vid), 7, degree)
    with pytest.raises(ValidationError, match="not True$"):
        count_projective(CAT.variety("schoen_x"), 7, degree=True)


def test_counter_invariants_raise(monkeypatch):
    # a lost or doubled cell breaks the divisibility by p - 1 of the affine
    # and orbit-weighted totals; the counters raise, also under python -O
    run = counting._run_chunks

    def off_by_one(worker, chunks):
        parts = run(worker, chunks)
        return [parts[0] + 1] + parts[1:]

    # the kernel's cached pass sits before the seam, so a cache hit is
    # checked too and no corrupted value is stored: schoen_x maps onto
    # schoen_y, and all three counts at 7 read one pass
    counting._block_pass.cache_clear()
    sy, iy = CAT.variety("schoen_y"), CAT.involution("iota_y")
    monkeypatch.setattr(counting, "_run_chunks", off_by_one)
    with pytest.raises(FrobtraceError, match="p=7.* 1 mod p-1"):
        count_projective(sy, 7)
    with pytest.raises(FrobtraceError, match="p=7.* 1 mod p-1"):
        count_twisted(sy, iy, 7)
    with pytest.raises(FrobtraceError, match="p=7.* 1 mod p-1"):
        count_projective(CAT.variety("schoen_x"), 7)
    assert counting._block_pass.cache_info().misses == 1
    with pytest.raises(FrobtraceError, match="p=3.* 1 mod p-1"):
        count_weighted(CAT.variety("schoen_quotient"), 3)
    with pytest.raises(FrobtraceError, match="stabilizer-weighted .* 1 mod p-1"):
        count_weighted(dense("schoen_quotient"), 3)
    monkeypatch.undo()
    # the pass the raising counts stored at 7 is the clean one: read back,
    # it gives the pinned counts with no pass beyond those at 7 and 3
    assert count_projective(sy, 7).count == count_twisted(sy, iy, 7).count \
        == 401
    assert counting._block_pass.cache_info().misses == 2


def test_counter_invariants_raise_under_O():
    # the same checks in a python -O child, which strips assert statements:
    # the counters' invariants and cell budgets, and the evaluator's bound
    # against Python ints at p = 2^31 - 1 with its refusal of p >= 2^31
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(counting.__file__).parent.parent),
                      env.get("PYTHONPATH")]))
    evaluator = Path(__file__).with_name("test_catalog.py")
    res = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_counter_invariants_raise",
         f"{__file__}::test_kernel_tables_are_bounded",
         f"{__file__}::test_orbit_convolution_is_checked",
         f"{__file__}::test_torus_count_is_bounded",
         f"{__file__}::test_cell_budgets_name_the_largest_accepted_prime"]
        + [f"{evaluator}::{name}" for name in (
            "test_evaluator_matches_python_ints",
            "test_evaluator_reduces_inside_the_chain",
            "test_ext_evaluator_frobenius")],
        capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    assert "8 passed" in res.stdout


def test_matches_share_one_pass_per_prime(monkeypatch):
    # schoen_x maps onto schoen_y's model and the quotient's halved groups
    # are the same key, so the rigid match over the 45 good primes from 3
    # to 211 and the quotient match over its 35 make one pass per prime, in
    # either order; their rows equal those of matches with no pass cache
    bad = CAT.variety("schoen_x").bad_primes
    rigid = [p for p in range(3, 212) if is_prime(p) and p not in bad]
    quot = [p for p in rigid if p % 5 != 4
            and p not in CAT.variety("schoen_quotient").bad_primes]
    assert (len(rigid), len(quot)) == (45, 35)
    runs = {"rigid": lambda: cli.match_rigid("schoen_x", rigid, 11, cat=CAT),
            "quotient": lambda: cli.match_quotient(quot, 11, cat=CAT)}
    for order in (("rigid", "quotient"), ("quotient", "rigid")):
        counting._block_pass.cache_clear()
        shared = {name: runs[name]().to_json() for name in order}
        assert counting._block_pass.cache_info().misses == 45, order
        # the quotient's rows at 41, 61, 101, ... check its declared D at
        # the nodes over the fixed curve's nodes
        assert shared["rigid"]["overall"] and shared["quotient"]["overall"]
    # the cache holds a pass of one model at every prime the kernel accepts
    accepted = [p for p in range(3, 2000) if is_prime(p)
                and p * p <= counting._MAX_HIST_CELLS]
    assert counting._block_pass.cache_info().maxsize >= len(accepted) == 302
    monkeypatch.setattr(counting, "_block_pass",
                        counting._block_pass.__wrapped__)
    assert {name: run().to_json() for name, run in runs.items()} == shared


SHARED_PASS_COUNTS = {
    "schoen_x": lambda p: count_projective(CAT.variety("schoen_x"), p),
    "schoen_y": lambda p: count_projective(CAT.variety("schoen_y"), p),
    "schoen_y/iota_y": lambda p: count_twisted(
        CAT.variety("schoen_y"), CAT.involution("iota_y"), p),
    "schoen_quotient": lambda p: count_weighted(
        CAT.variety("schoen_quotient"), p),
    "consani_scholten": lambda p: count_projective(
        CAT.variety("consani_scholten"), p),
}


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(SHARED_PASS_COUNTS)),
                          st.sampled_from(SMALL_PRIMES)),
                min_size=1, max_size=12))
def test_pass_cache_keys_do_not_collide(calls):
    # counts of four models in any order, each reading the passes the
    # counts before it left, equal the same counts from an empty cache
    counting._block_pass.cache_clear()
    got = []
    for name, p in calls:
        got.append(SHARED_PASS_COUNTS[name](p).count)
        info = counting._block_pass.cache_info()
        assert info.currsize <= info.maxsize
    for (name, p), n in zip(calls, got):
        counting._block_pass.cache_clear()
        assert SHARED_PASS_COUNTS[name](p).count == n, (name, p)


def test_equation_degenerate_mod_p():
    amb = Ambient("projective", n=1)
    spec = VarietySpec("deg", amb, ((Monomial(3, (1, 0)),),), 0,
                       frozenset({2}), "test")
    with pytest.raises(ValidationError):
        count_projective(spec, 3)
    # a double cover's linear forms too: eight forms 3 x0 are refused at 3,
    # and at 7 they are w^2 = 3^8 x0^8, with the count of w^2 = x0^8
    cover = VarietySpec("w2_3x0_8", Ambient("double_cover_p3"),
                        tuple((Monomial(3, (1, 0, 0, 0)),) for _ in range(8)),
                        3, frozenset({2}), "test")
    with pytest.raises(ValidationError, match="equation 0 vanishes .* mod 3"):
        count_double_cover(cover, 3)
    assert count_double_cover(cover, 7).count == 2 * 7 ** 3 + 7 * 7 + 7 + 1


def test_twisted_guards():
    sx = CAT.variety("schoen_x")
    with pytest.raises(RefusalError):
        count_twisted(sx, CAT.involution("iota_x"), 7)
    with pytest.raises(ValidationError):
        count_twisted(CAT.variety("schoen_y"), CAT.involution("iota_y"), 2)


def test_check_preserves():
    sx = CAT.variety("schoen_x")
    assert check_preserves(sx, CAT.involution("iota_x"))
    flip = InvolutionSpec("flip0", "schoen_x",
                          ((-1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0),
                           (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)))
    # the expansion is memoised per (variety, involution), the refusal not:
    # the bad flip raises on every call
    for _ in range(2):
        with pytest.raises(ValidationError):
            check_preserves(sx, flip)
        with pytest.raises(ValidationError):
            count_twisted(sx, flip, 7)


def test_slabs_do_not_change_counts(monkeypatch):
    # no Tier-1 prime is large enough for a chart to be cut into slabs (that
    # takes p >= 47 on P^4 and p >= 163 on P^3); a budget of 200 cells cuts
    # the charts with p^3 and p^4 cells at 11 and 13 into p slabs each
    sx = dense("schoen_x")
    calls = [  # (count, charts cut into slabs)
        (lambda: count_projective(CAT.variety("hm_quintic"), 11), 2),
        (lambda: count_projective(sx, 13), 2),
        (lambda: count_double_cover(CAT.variety("double_octic_template"), 11),
         1)]
    base = [f() for f, _ in calls]
    assert base[0].count == HM_N[11] and base[1].count == SCHOEN_N[13]
    nodes = singular_points(CAT.variety("schoen_x"), 11)
    monkeypatch.setattr(catalog, "_MAX_SLAB_CELLS", 200)
    for (f, cut), b in zip(calls, base):
        rec = f()
        assert rec.count == b.count, rec.variety_id
        assert rec.chunk_count == b.chunk_count + cut * (rec.p - 1)
    assert singular_points(CAT.variety("schoen_x"), 11) == nodes


def eliminated_chunks(monkeypatch):
    """The degrees of the chunks counted by _count_roots from here on."""
    seen, run = [], counting._count_roots

    def spy(c, p):
        seen.append(len(c) - 1)
        return run(c, p)

    monkeypatch.setattr(counting, "_count_roots", spy)
    return seen


def test_elimination_matches_full_grid(monkeypatch):
    # hm_quintic has no count model: its charts x0 = 1 and x0 = 0, x1 = 1
    # eliminate a coordinate of degree 3, and the full grid agrees at every
    # prime to 23 and at 47, where the chart x0 = 1 is cut into 47 slabs;
    # all 48 chunks of degree 3 share one table
    hm = CAT.variety("hm_quintic")
    seen = eliminated_chunks(monkeypatch)
    for p in [2] + SMALL_PRIMES + [47]:
        seen.clear()
        rec = count_projective(hm, p)
        assert rec.count == full_grid(hm, p), p
        assert 3 in seen, p
        assert rec.chunk_count == len(catalog._charts(p, 5)), p
    assert seen.count(3) == 48
    assert count_projective(hm, 41).count == 70666


def test_elimination_is_chosen_by_degrees(monkeypatch):
    # a copy of hm_quintic under another id takes the path; schoen_x, of
    # degree 5 in every coordinate, has no chart whose p^5 table fits in
    # its cells over p, so its dense oracle stays on the full grid; chunk
    # counts and the budget refusal are those of the chart loop
    copy = dataclasses.replace(CAT.variety("hm_quintic"), id="hm_copy")
    seen = eliminated_chunks(monkeypatch)
    for p in (7, 11):
        assert count_projective(copy, p).count == HM_N[p]
    assert seen and max(seen) == 3
    # degrees are read on each chart against one bound per count, p^d at
    # most the largest chart's p^4 cells over p: x0 = 1 eliminates x1 and
    # x0 = 0, x1 = 1 eliminates x2, both of degree 3 in every coordinate,
    # on one table; x0 = x1 = 0, x2 = 1 eliminates x4 with degree 2; on
    # x0 = x1 = x2 = 0, x3 = 1 no monomial left reads x4, which goes with
    # degree 0
    plans = [counting._elimination(copy.equations[0], f.index(1), 5,
                                   tuple(i for i, x in enumerate(f)
                                         if x is None), 41)
             for f in catalog._charts(41, 5)]
    assert [plan and (plan[0], len(plan[1]) - 1) for plan in plans] == \
        [(1, 3), (2, 3), (4, 2), (4, 0), None]
    seen.clear()
    for p in SMALL_PRIMES:
        assert count_projective(dense("schoen_x"), p).chunk_count == 5
    assert seen == []
    with pytest.raises(ValidationError) as err:
        count_projective(copy, 157)
    assert str(err.value) == (
        "dense count at p=157 needs 607573201 cells, over the budget of "
        "600000000; the largest prime it accepts is 151")


@st.composite
def _low_degree_hypersurface(draw):
    """(spec, p): a random homogeneous equation on P^2 or P^3 of degree at
    most nvars - 2 in its last coordinate, so that the chart x0 = 1 can
    eliminate a coordinate; its coefficients, so its top coefficients,
    vanish on some cells, and with last degree 0 it is constant there."""
    nv = draw(st.sampled_from((3, 4)))
    deg = draw(st.integers(1, 4))
    top = draw(st.integers(0, nv - 2))
    expos = st.lists(st.integers(0, deg), min_size=nv - 1, max_size=nv - 1)
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        head = draw(expos.filter(lambda e: sum(e) <= deg
                                 and deg - sum(e) <= top))
        e = tuple(head) + (deg - sum(head),)
        terms[e] = draw(st.integers(-20, 20))
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    assume(any(c % p for c in terms.values()))
    return _spec(nv, [(c, e) for e, c in sorted(terms.items()) if c]), p


@settings(max_examples=150, deadline=None, database=None)
@given(_low_degree_hypersurface())
# x1 x2 + x0^2: where x1 = 0 the top coefficient vanishes and c_0 = 1
@example((_spec(3, [(1, (0, 1, 1)), (1, (2, 0, 0))]), 5))
# x1 x2 - x0 x1: where x1 = 0 every coefficient vanishes, p roots
@example((_spec(3, [(1, (0, 1, 1)), (-1, (1, 1, 0))]), 7))
# x1^2 x3^2 + x0 x2^3 + x3^4: a top coefficient of degree 2 vanishing on
# a conic of the chart
@example((_spec(4, [(1, (0, 2, 0, 2)), (1, (1, 0, 3, 0)), (1, (0, 0, 0, 4))]),
          13))
# x1^2 - x0 x2 on P^3: constant in x3, eliminated with degree 0
@example((_spec(4, [(1, (0, 2, 0, 0)), (-1, (1, 0, 1, 0))]), 11))
# x2 on P^3: degree 0 in x1 on the chart x0 = 1, where c_0 = x2 does not
# read x3 and still weighs all p cells of it: 7 points
@example((_spec(4, [(1, (0, 0, 1, 0))]), 2))
def test_elimination_random_hypersurfaces(case):
    spec, p = case
    nv = spec.ambient.nvars
    assert counting._elimination(spec.equations[0], 0, nv,
                                 tuple(range(1, nv)), p) is not None
    assert count_projective(spec, p).count == full_grid(spec, p)


def test_elimination_memory():
    # cold, hm_quintic's chart x0 = 1 holds c_0, c_1 and c_2 on its p^3
    # cells, consumed in place, and c_3 = x2 - x3^2 on p^2, after the root
    # tables are built: the peak stays below 4 p^3 int64 (8.4 before); the
    # degree-3 table adds its index in place to the one p^3 array of a_0
    # (3.03 p^3 int64 before)
    hm = CAT.variety("hm_quintic")
    for p, want in ((41, 70666), (43, 80996)):
        counting._root_table.cache_clear()
        counting._elimination.cache_clear()
        tracemalloc.start()
        try:
            assert count_projective(hm, p).count == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * p ** 3 * 8, (p, peak / (p ** 3 * 8))
    counting._root_table.cache_clear()
    tracemalloc.start()
    try:
        counting._root_table(3, 41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * 41 ** 3 * 8, peak / (41 ** 3 * 8)


def test_root_tables_match_brute_force():
    for p in (2, 3, 5, 7, 11, 13):
        for k in (1, 2, 3):
            table = counting._root_table(k, p)
            assert table.shape == (p ** k,)
            for index in range(p ** k):
                a = [index // p ** j % p for j in range(k)] + [1]
                roots = sum(sum(c * x ** j for j, c in enumerate(a)) % p == 0
                            for x in range(p))
                assert table[index] == roots, (p, k, a)


def test_record_round_trip():
    recs = [count_projective(CAT.variety("schoen_x"), p) for p in (3, 7)]
    buf = io.StringIO()
    write_records(recs, buf)
    buf.seek(0)
    back = read_records(buf)
    assert back == recs
    assert back[0].variety_id == "schoen_x"
    assert back[0].field_degree == 1


def _pair_catalog(r1, r2, coupling=0, m=((), ())):
    """A one-variety catalog of r1(x0, x1, x4) + r2(x2, x3, x4) + coupling
    x4 m1(x0, x1) m2(x2, x3) on P^4, with that structure declared."""
    eq = {}

    def add(x, c):
        eq[x] = eq.get(x, 0) + c

    for c, (a, b, s) in r1:
        add((a, b, 0, 0, s), c)
    for c, (a, b, s) in r2:
        add((0, 0, a, b, s), c)
    for c1, (a1, b1, _) in m[0]:
        for c2, (a2, b2, _) in m[1]:
            add((a1, b1, a2, b2, 1), coupling * c1 * c2)
    eq = [[c, list(e)] for e, c in eq.items() if c]
    if not eq:              # a draw that cancels; fixed pairs never do
        assume(False)
    groups = [{"vars": [2 * g, 2 * g + 1], "r": [[c, list(e)] for c, e in r],
               "m": [[c, list(e)] for c, e in mg]}
              for g, (r, mg) in enumerate(zip((r1, r2), m))]
    doc = {"varieties": [{
        "id": "pair", "ambient": {"kind": "projective", "n": 4},
        "dimension": 3, "bad_primes": [2], "known": None, "provenance": "test",
        "equations": [eq], "count_model": {
            "shared": 4, "coupling": coupling, "groups": groups}}]}
    return catalog_from_json(doc).variety("pair")


def _forms(deg, with_s=True, even_b=False):
    """Random forms of degree deg in (a, b, s), or in (a, b) alone, and
    with even_b even in b."""
    exps = [(a, deg - a - s, s) for s in range(deg + 1 if with_s else 1)
            for a in range(deg - s + 1) if not (even_b and (deg - a - s) % 2)]
    return st.lists(st.tuples(st.integers(-6, 6), st.sampled_from(exps)),
                    min_size=1, max_size=5, unique_by=lambda t: t[1]).map(
        lambda ts: tuple((c, e) for c, e in ts if c))


@settings(max_examples=40, deadline=None, database=None)
@given(_forms(3), _forms(3), st.sampled_from((3, 5, 7, 11, 13)))
@example(((1, (3, 0, 0)), (2, (1, 1, 1))), ((1, (0, 3, 0)), (3, (0, 0, 3))), 7)
def test_uncoupled_kernel_random(r1, r2, p):
    assume(r1 and r2)
    spec = _pair_catalog(r1, r2)
    assume(any(m.coefficient % p for m in spec.equations[0]))
    assert spec.count_model is not None
    assert count_projective(spec, p).count == \
        count_projective(dataclasses.replace(spec, count_model=None), p).count


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from(((1, 3), (2, 5), (3, 7))).flatmap(
           lambda dd: st.tuples(st.just(dd[1]), _forms(dd[1], False),
                                _forms(dd[1], False), _forms(dd[0], False),
                                _forms(dd[0], False))),
       st.integers(-6, 6), st.integers(1, 6),
       st.sampled_from((3, 5, 7, 11, 13)))
@example((5, ((1, (5, 0, 0)),), ((1, (0, 5, 0)), (2, (1, 4, 0))),
          ((1, (2, 0, 0)),), ((1, (1, 1, 0)),)), 1, 1, 13)
@example((7, ((1, (7, 0, 0)),), ((1, (0, 7, 0)), (2, (1, 6, 0))),
          ((1, (3, 0, 0)),), ((1, (1, 2, 0)),)), 1, 1, 13)
@example((7, ((1, (7, 0, 0)),), ((1, (0, 7, 0)), (2, (1, 6, 0))),
          ((1, (3, 0, 0)),), ((1, (1, 2, 0)),)), 1, 1, 5)
def test_coupled_kernel_random(forms, head, k, p):
    # coupling terms of degree 1 + 2d in the total degree D = 2d + 1: the
    # Phi rows of the second group, one per class modulo (D - d)-th powers,
    # 2 or 4 classes at p = 5 and 13 when D - d = 2 or 4, and at p = 5
    # with D - d = 4 one class per lambda
    D, r1, r2, m1, m2 = forms
    assume(r1 and r2 and m1 and m2)
    r1 = r1 + (((head, (0, 0, D)),) if head else ())
    spec = _pair_catalog(r1, r2, k, (m1, m2))
    assume(any(m.coefficient % p for m in spec.equations[0]))
    assert count_projective(spec, p).count == \
        count_projective(dataclasses.replace(spec, count_model=None), p).count


@st.composite
def _even_pairs(draw):
    """(r1, r2, coupling, (m1, m2)) for _pair_catalog, every form even in b:
    uncoupled (coupling 0) with s in both groups, or coupled as in
    test_coupled_kernel_random."""
    d, deg = draw(st.sampled_from(((1, 3), (2, 5), (3, 7))))
    k = draw(st.just(0) | st.integers(-6, 6))
    r1, r2 = draw(_forms(deg, True, True)), draw(_forms(deg, not k, True))
    m = ((draw(_forms(d, False, True)), draw(_forms(d, False, True))) if k
         else ((), ()))
    return r1, r2, k, m


_SCHOEN_GROUP = ((1, (5, 0, 0)), (10, (3, 2, 0)), (5, (1, 4, 0)))
_SCHOEN_M = ((1, (2, 0, 0)), (-1, (0, 2, 0)))


@settings(max_examples=60, deadline=None, database=None)
@given(_even_pairs(), st.sampled_from(((-1, 1), (1, -1), (-1, -1))),
       st.sampled_from((3, 5, 7, 11, 13)))
@example((((1, (3, 0, 0)), (2, (1, 2, 0)), (1, (0, 0, 3))),
          ((1, (3, 0, 0)), (1, (1, 0, 2))), 0, ((), ())), (-1, 1), 7)
@example((((2, (0, 0, 3)), (1, (3, 0, 0)), (3, (1, 2, 0))),
          ((1, (1, 2, 0)), (-1, (3, 0, 0))), 2,
          (((1, (1, 0, 0)),), ((1, (1, 0, 0)),))), (1, -1), 13)
@example((((16, (0, 0, 5)),) + _SCHOEN_GROUP, _SCHOEN_GROUP, -5,
          (_SCHOEN_M, _SCHOEN_M)), (-1, -1), 11)
def test_twisted_kernel_random(pair, flip, p):
    # an involution flipping b in group 1 (x1), group 2 (x3) or both, on
    # groups even in b: the kernel's block weights against the dense count
    # of the substituted equations; the last example is schoen_y
    r1, r2, k, m = pair
    assume(r1 and r2 and (not k or all(m)))
    spec = _pair_catalog(r1, r2, k, m)
    assume(any(x.coefficient % p for x in spec.equations[0]))
    diag = (1, flip[0], 1, flip[1], 1)
    phi = InvolutionSpec("flip", "pair", tuple(
        tuple(d if i == j else 0 for j in range(5)) for i, d in enumerate(diag)))
    assert counting._flips(spec.count_model, diag) == (flip[0] < 0, flip[1] < 0)
    # a flip of a1 or of s is no block weighting: the dense path counts it
    for dense_only in ((-1,) + diag[1:], diag[:4] + (-1,)):
        assert counting._flips(spec.count_model, dense_only) is None
    assert count_twisted(spec, phi, p).count == \
        count_twisted(dataclasses.replace(spec, count_model=None), phi, p).count


_COUPLED = st.sampled_from(((1, 3), (2, 5), (3, 7))).flatmap(
    lambda dd: st.tuples(
        _forms(dd[1]), _forms(dd[1], False), st.integers(-6, 6).filter(bool),
        st.tuples(_forms(dd[0], False), _forms(dd[0], False))))
_UNCOUPLED = st.tuples(_forms(3), _forms(3), st.just(0), st.just(((), ())))


@settings(max_examples=60, deadline=None, database=None)
@given(st.one_of(_COUPLED, _UNCOUPLED, _even_pairs()),
       st.sampled_from([p for p in range(17, 62) if is_prime(p)]))
def test_kernel_matches_percent_reference_random(pair, p):
    # random coupled, uncoupled and even-in-b models, the last also twisted
    # by flipping both b: the pass and the % p reference serve the same
    # counts at primes 17 to 61, past the reach of the dense oracles of the
    # kernel tests above
    r1, r2, k, m = pair
    assume(r1 and r2 and (not k or all(m)))
    spec = _pair_catalog(r1, r2, k, m)
    assume(any(x.coefficient % p for x in spec.equations[0]))
    assert spec.count_model is not None
    diag = (1, -1, 1, -1, 1)
    flip = InvolutionSpec("flip", "pair", tuple(
        tuple(d if i == j else 0 for j in range(5))
        for i, d in enumerate(diag)))

    def run():
        out = [count_projective(spec, p).count]
        if counting._flips(spec.count_model, diag):
            out.append(count_twisted(spec, flip, p).count)
        return out

    assert _served_counts(run, False) == _served_counts(run, True)
