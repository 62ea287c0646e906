import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobtrace.catalog import (Ambient, InvolutionSpec, Monomial, VarietySpec,
                               _charts, _eval_mono_list, _grid, _restrict,
                               evaluate, load_catalog, save_catalog,
                               singular_points)
from frobtrace.errors import RefusalError, ValidationError
from frobtrace.ffield import PrimeField

CAT = load_catalog()

VARIETY_IDS = {"schoen_x", "schoen_y", "schoen_quotient", "hulek_verrill",
               "hm_quintic", "e_plane", "consani_scholten",
               "double_octic_template"}


def test_catalog_contents():
    assert set(CAT.varieties) == VARIETY_IDS
    assert set(CAT.involutions) == {"iota_x", "iota_y"}
    assert CAT.variety("schoen_x").known["nodes"] == 125
    assert CAT.variety("schoen_quotient").known["resolved_b2"] == 85
    with pytest.raises(ValidationError):
        CAT.variety("no_such_thing")
    with pytest.raises(ValidationError):
        CAT.involution("no_such_thing")


def test_round_trip_byte_exact(tmp_path):
    shipped = resources.files("frobtrace").joinpath("data/catalog.json").read_bytes()
    out = tmp_path / "copy.json"
    save_catalog(CAT, out)
    assert out.read_bytes() == shipped


def test_homogeneity_enforced():
    amb = Ambient("projective", n=2)
    bad = ((Monomial(1, (3, 0, 0)), Monomial(1, (1, 1, 0))),)
    with pytest.raises(ValidationError):
        VarietySpec("bad", amb, bad, 1, frozenset({2}), "test")


def test_weighted_homogeneity():
    amb = Ambient("weighted_projective", weights=(1, 1, 2))
    ok = ((Monomial(1, (4, 0, 0)), Monomial(1, (0, 0, 2))),)
    VarietySpec("ok", amb, ok, 1, frozenset({2}), "test")
    bad = ((Monomial(1, (4, 0, 0)), Monomial(1, (0, 0, 1))),)
    with pytest.raises(ValidationError):
        VarietySpec("bad", amb, bad, 1, frozenset({2}), "test")


def test_bad_primes_required():
    amb = Ambient("projective", n=2)
    eq = ((Monomial(1, (3, 0, 0)),),)
    with pytest.raises(ValidationError):
        VarietySpec("bad", amb, eq, 1, frozenset(), "test")


def test_monomial_arity_checked():
    amb = Ambient("projective", n=2)
    eq = ((Monomial(1, (3, 0)),),)
    with pytest.raises(ValidationError):
        VarietySpec("bad", amb, eq, 1, frozenset({2}), "test")


def test_involution_must_square_to_identity():
    with pytest.raises(ValidationError):
        InvolutionSpec("bad", "schoen_x",
                       ((0, 1), (0, 1)))
    InvolutionSpec("ok", "schoen_x", ((0, 1), (1, 0)))


def test_involution_shape():
    ix = CAT.involution("iota_x")
    iy = CAT.involution("iota_y")
    assert not ix.is_diagonal()
    assert iy.is_diagonal()
    assert iy.diagonal() == (1, 1, 1, -1, -1)


def test_evaluate_values():
    hm = CAT.variety("hm_quintic")
    cs = CAT.variety("consani_scholten")
    assert evaluate(hm, (1, 1, 1, 1, 1), 7) == (0,)
    assert evaluate(hm, (1, 1, 0, 0, 0), 7) == (0,)
    assert evaluate(hm, (1, 2, 3, 4, 5), 11) == (6,)
    assert evaluate(cs, (1, 0, 0, 0, 0), 7) == (1,)
    assert evaluate(cs, (1, 1, 1, 1, 1), 7) == (0,)
    assert evaluate(cs, (1, 2, 3, 4, 5), 11) == (6,)
    assert evaluate(CAT.variety("schoen_x"), (1, 1, 1, 1, 1), 13) == (0,)
    assert evaluate(CAT.variety("e_plane"), (1, 1, 1), 11) == (0,)
    with pytest.raises(ValidationError):
        evaluate(hm, (1, 1, 1), 7)


def test_quotient_is_substitution_of_y_model():
    # points of the y-model map to the quotient via the invariant monomials
    sq = CAT.variety("schoen_quotient")
    sy = CAT.variety("schoen_y")
    rng = random.Random(0)
    for p in (3, 7, 11, 13):
        for _ in range(25):
            y = [rng.randrange(p) for _ in range(5)]
            big = (y[0], y[1], y[2],
                   y[3] * y[3] % p, y[4] * y[4] % p, y[3] * y[4] % p)
            assert evaluate(sq, big, p) == (evaluate(sy, y, p)[0], 0)


def test_singular_points_schoen():
    sx = CAT.variety("schoen_x")
    assert singular_points(sx, 7) == [(1, 1, 1, 1, 1)]
    assert len(singular_points(sx, 11)) == 125
    assert len(singular_points(sx, 31)) == 125


def test_singular_points_plane_curve():
    ep = CAT.variety("e_plane")
    assert len(singular_points(ep, 11)) == 5
    assert len(singular_points(ep, 13)) == 1


def test_singular_points_guards():
    with pytest.raises(RefusalError):
        singular_points(CAT.variety("schoen_x"), 5)
    with pytest.raises(ValidationError):
        singular_points(CAT.variety("schoen_quotient"), 3)
    amb = Ambient("weighted_projective", weights=(1, 1, 2))
    eq = ((Monomial(1, (4, 0, 0)), Monomial(1, (0, 0, 2))),)
    w = VarietySpec("w", amb, eq, 1, frozenset({2}), "test")
    with pytest.raises(ValidationError):
        singular_points(w, 3)


# ------------------------------ dense evaluator and Weil restriction (numpy)

@st.composite
def _homogeneous(draw):
    """A random homogeneous monomial list in 3 or 4 variables."""
    nvars = draw(st.integers(3, 4))
    deg = draw(st.integers(1, 5))
    eq = []
    for _ in range(draw(st.integers(1, 4))):
        cuts = sorted(draw(st.integers(0, deg)) for _ in range(nvars - 1))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [deg]))
        eq.append(Monomial(draw(st.integers(-60, 60)), exps))
    return VarietySpec("random", Ambient("projective", n=nvars - 1),
                       (tuple(eq),), nvars - 2, frozenset({2}), "test")


@settings(max_examples=60, deadline=None, database=None)
@given(_homogeneous(), st.sampled_from((2, 3, 5, 7, 11)), st.data())
def test_chart_evaluator_matches_evaluate(spec, p, data):
    # a chart of _charts, or a slab of it with its first free coordinate fixed
    nv = spec.ambient.nvars
    fixed = data.draw(st.sampled_from(_charts(p, nv)))
    lead = fixed.index(1)
    if None in fixed:
        k = fixed.index(None)
        fixed = fixed[:k] + [data.draw(st.none() | st.integers(0, p - 1))] \
            + fixed[k + 1:]
    coords = _grid(p, fixed)
    vals = _eval_mono_list(spec.equations[0], coords, p)
    assert vals.shape == (p,) * fixed.count(None)
    for idx in np.ndindex(vals.shape):
        pt = tuple(int(np.broadcast_to(c, vals.shape)[idx]) for c in coords)
        assert pt[:lead + 1] == (0,) * lead + (1,)
        assert all(x == f for x, f in zip(pt, fixed) if f is not None)
        assert (int(vals[idx]),) == evaluate(spec, pt, p)


def _pair_mul(x, y, p, n):
    """(a + b s)(c + d s) in F_p[s]/(s^2 - n), on (a, b) pairs of ints."""
    return ((x[0] * y[0] + n * x[1] * y[1]) % p,
            (x[0] * y[1] + x[1] * y[0]) % p)


@settings(max_examples=60, deadline=None, database=None)
@given(_homogeneous(), st.sampled_from((3, 5, 7, 11, 13)), st.data())
def test_restriction_matches_pair_arithmetic(spec, p, data):
    nv = spec.ambient.nvars
    n = PrimeField(p).nonresidue
    eq = spec.equations[0]
    points = data.draw(st.lists(
        st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)),
                 min_size=nv, max_size=nv), min_size=1, max_size=8))
    # columns a_0, b_0, a_1, b_1, ... over the drawn points
    coords = list(np.array([[c for xy in pt for c in xy] for pt in points],
                           dtype=np.int64).T)
    got = [_eval_mono_list(f, coords, p) for f in _restrict(eq, n)]
    for k, pt in enumerate(points):
        want = (0, 0)
        for mono in eq:
            t = (mono.coefficient % p, 0)
            for x, e in zip(pt, mono.exponents):
                for _ in range(e):
                    t = _pair_mul(t, x, p, n)
            want = ((want[0] + t[0]) % p, (want[1] + t[1]) % p)
        assert (int(got[0][k]), int(got[1][k])) == want


@settings(max_examples=40, deadline=None, database=None)
@given(_homogeneous(), st.sampled_from((3, 5, 7)), st.data())
def test_ext_evaluator_restricts_to_fp(spec, p, data):
    # on points with every s-part 0 the F_{p^2} values are the F_p values
    nv = spec.ambient.nvars
    lead = data.draw(st.integers(0, nv - 1))
    coords = _grid(p, _charts(p, nv, 2)[lead])
    re, im = (_eval_mono_list(f, coords, p)
              for f in _restrict(spec.equations[0], PrimeField(p).nonresidue))
    rational = np.logical_and.reduce(
        [np.broadcast_to(b, re.shape) == 0 for b in coords[1::2]])
    assert np.count_nonzero(rational) == p ** (nv - 1 - lead)
    assert not im[rational].any()
    at = [np.broadcast_to(a, re.shape)[rational] for a in coords[::2]]
    assert (re[rational] == _eval_mono_list(spec.equations[0], at, p)).all()


def test_ext_evaluator_frobenius():
    # x^p is the conjugation a + bs -> a - bs, and x^(p^2) = x
    for p in (3, 7, 11, 13):
        a, b = _grid(p, [None, None])
        n = PrimeField(p).nonresidue
        for e, want in ((p, (a, -b % p)), (p * p, (a, b))):
            got = [_eval_mono_list(f, [a, b], p)
                   for f in _restrict((Monomial(1, (e,)),), n)]
            assert all((g == w).all() for g, w in zip(got, want))
    # products of residues stay below p^2 < 2^62 only for p < 2^31
    with pytest.raises(ValidationError, match="2\\^31"):
        _eval_mono_list((Monomial(1, (2,)),), _grid(3, [None]), 1 << 31)
