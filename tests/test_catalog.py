import copy
import json
import math
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frobtrace import catalog, cli
from frobtrace.catalog import (Ambient, InvolutionSpec, Monomial, VarietySpec,
                               _charts, _eval_mono_list, _grid, _restrict,
                               catalog_from_json, evaluate, load_catalog,
                               singular_points)
from frobtrace.errors import RefusalError, ValidationError
from frobtrace.ffield import kronecker, nonresidue

CAT = load_catalog()

VARIETY_IDS = {"schoen_x", "schoen_y", "schoen_quotient", "hulek_verrill",
               "hm_quintic", "e_plane", "consani_scholten",
               "double_octic_template"}


def test_catalog_contents():
    assert set(CAT.varieties) == VARIETY_IDS
    assert set(CAT.involutions) == {"iota_x", "iota_y"}
    # node claims, computed at a prime where every node is rational:
    # schoen_x's known 125 at 11, consani_scholten's provenance 120 at 31
    sx = CAT.variety("schoen_x")
    assert len(singular_points(sx, 11)) == sx.known["nodes"] == 125
    assert len(singular_points(CAT.variety("consani_scholten"), 31)) == 120
    assert CAT.variety("schoen_quotient").known["resolved_b2"] == 85
    with pytest.raises(ValidationError):
        CAT.variety("no_such_thing")
    with pytest.raises(ValidationError):
        CAT.involution("no_such_thing")


SHIPPED = json.loads(resources.files("frobtrace").joinpath(
    "data/catalog.json").read_text())
MODELS = {"schoen_x", "schoen_y", "schoen_quotient", "consani_scholten"}


def test_round_trip_keeps_count_models():
    assert {v["id"] for v in SHIPPED["varieties"]
            if "count_model" in v} == MODELS
    back = catalog_from_json(SHIPPED)
    assert back == CAT
    for vid in MODELS:
        assert back.variety(vid).count_model == CAT.variety(vid).count_model
    sx = back.variety("schoen_x").count_model
    assert (sx.onto, sx.unit) == ("schoen_y", 16)     # det 8, ratio 2
    assert sx.groups == back.variety("schoen_y").count_model.groups
    assert back.variety("schoen_quotient").count_model.weight == 2


def _with_model(vid, edit):
    doc = copy.deepcopy(SHIPPED)
    edit(next(v for v in doc["varieties"] if v["id"] == vid)["count_model"])
    return doc


def test_wrong_count_model_refused_at_load():
    def coupling(m):
        m["coupling"] = -4

    def head(m):
        m["groups"][0]["r"][0][0] = 15

    def groups(m):
        m["groups"].reverse()          # the s^5 term is not r2's to carry

    def chi(m):
        m["chi"] = 4

    def swap_map(m):
        m["map"][1], m["map"][2] = m["map"][2], m["map"][1]

    def singular_map(m):
        m["map"][0] = [0] * 5

    for vid, edit in [("schoen_y", coupling), ("schoen_y", head),
                      ("schoen_y", groups), ("schoen_quotient", coupling),
                      ("schoen_quotient", chi),
                      ("consani_scholten", head), ("schoen_x", singular_map)]:
        with pytest.raises(ValidationError, match="count_model"):
            catalog_from_json(_with_model(vid, edit))
    # a permutation of the coordinates that preserves the equation is a
    # valid map onto schoen_y still
    swapped = catalog_from_json(_with_model("schoen_x", swap_map))
    assert swapped.variety("schoen_x").count_model.unit == 16


def test_normalization_discriminant():
    # e_plane's declared y^2 + xy + y = x^3 + x^2 - 3x + 1, with the
    # discriminant computed here from a1, ..., a6 by the standard formulas
    norm = CAT.variety("e_plane").normalization
    a1, a2, a3, a4, a6 = norm.weierstrass
    assert (a1, a2, a3, a4, a6) == (1, 1, 1, -3, 1)
    b2, b4, b6 = a1 ** 2 + 4 * a2, 2 * a4 + a1 * a3, a3 ** 2 + 4 * a6
    b8 = a1 ** 2 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 ** 2 - a4 ** 2
    delta = -b2 ** 2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6
    assert (b2, b4, b6) == (5, -5, 5)
    assert delta == -800 == -2 ** 5 * 5 ** 2 == norm.discriminant()
    assert norm.b_invariants() == (b2, b4, b6, b8)
    assert catalog_from_json(SHIPPED).variety(
        "e_plane").normalization == norm


def test_bad_normalization_refused_at_load():
    def with_block(**edit):
        doc = copy.deepcopy(SHIPPED)
        block = next(v for v in doc["varieties"]
                     if v["id"] == "e_plane")["normalization"]
        block.update(edit)
        return doc

    # y^2 = x^3 is singular (discriminant 0); y^2 + y = x^3 - x has
    # discriminant 37, a prime where e_plane has good reduction
    for edit, why in [({"weierstrass": [0, 0, 0, 0, 0]}, "neither may be 0"),
                      ({"weierstrass": [0, 0, 1, -1, 0]}, "factor 37,"),
                      ({"splitting_discriminant": -3}, "factor 3,"),
                      ({"nodes": {"order": 5, "exponents": [[0, 0, 0],
                                                            [1, 1, 1]]}},
                       "twice"),
                      ({"nodes": {"order": 5, "exponents": [[0, 5, 0]]}},
                       "exponents mod 5")]:
        with pytest.raises(ValidationError, match=f"normalization .*{why}"):
            catalog_from_json(with_block(**edit))


def _entry(doc, eid, kind="varieties"):
    return next(v for v in doc[kind] if v["id"] == eid)


def _odd_chi(doc):
    # a chi variable needs b1, b2 and chi of even weight; on P^5 every
    # weight is 1, and the refusal comes before the equations are compared
    doc["varieties"].append({
        "id": "odd_chi", "ambient": {"kind": "projective", "n": 5},
        "dimension": 3, "equations": [[[1, [2, 0, 0, 0, 0, 0]]]],
        "bad_primes": [2], "provenance": "test",
        "count_model": {"shared": 0, "coupling": 0, "chi": 5, "groups": [
            {"vars": [1, 2], "r": [[1, [1, 0, 0]]], "m": []},
            {"vars": [3, 4], "r": [[1, [1, 0, 0]]], "m": []}]}})


def _set(eid, path, value, kind="varieties"):
    """An edit setting the value at path (keys and indices) in one entry."""
    def edit(doc):
        node = _entry(doc, eid, kind)
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


LOADER_REFUSALS = [
    (_set("e_plane", ["ambient", "kind"], "affine"),
     "unknown ambient kind 'affine'"),
    (_set("e_plane", ["equations", 0], []), "e_plane: equation 0 is empty"),
    (_set("iota_x", ["matrix", 2], [0, 1], kind="involutions"),
     "iota_x: matrix not square"),
    (_set("schoen_y", ["count_model", "groups", 0, "vars"], [1]),
     "schoen_y: count_model needs two groups of two variables"),
    (_set("schoen_y", ["count_model", "shared"], 1),
     r"variables \[1, 1, 4, 2, 3\] are not distinct indices below 5"),
    (_set("schoen_y", ["count_model", "groups", 0, "r", 0, 1], [0, 5]),
     r"monomials must be in \(a, b, s\)"),
    (_set("schoen_y", ["count_model", "groups", 0, "m", 0, 1], [2, 0, 1]),
     "m may not contain the shared variable"),
    (_set("schoen_quotient", ["count_model", "groups", 0, "vars"], [4, 1]),
     "needs weight 1 on s, a1, a2 and one weight on b1, b2, chi"),
    (_odd_chi, "odd_chi: count_model chi needs an even weight"),
    (_set("schoen_y", ["count_model", "groups", 0, "m"],
          [[1, [3, 0, 0]], [-1, [0, 3, 0]]]),
     "coupling term has no positive power of s"),
    (_set("schoen_x", ["count_model", "map", 4], [0, 1, 0, 0]),
     "schoen_x: count_model map does not fit schoen_y"),
    (_set("schoen_x", ["count_model", "onto"], "nope"),
     "schoen_x: count_model maps onto unknown variety 'nope'"),
    (_set("e_plane", ["normalization", "weierstrass"], [1, 1, 1, -3]),
     "e_plane: normalization needs the five coefficients"),
    (lambda doc: doc["varieties"].append(_entry(doc, "e_plane")),
     "duplicate variety id 'e_plane'"),
    (_set("iota_x", ["variety_id"], "nope", kind="involutions"),
     "involution 'iota_x' references unknown variety"),
    (_set("schoen_x", ["known", "splitting_discriminant"], True),
     "schoen_x: splitting_discriminant True is not an integer"),
    (_set("schoen_y", ["known", "splitting_discriminant"], 5.0),
     "schoen_y: splitting_discriminant 5.0 is not an integer"),
    # JSON true loaded as D = 1 and -5.7 as -5 through int()
    (_set("e_plane", ["normalization", "splitting_discriminant"], True),
     "e_plane: normalization splitting_discriminant True is not an integer"),
    (_set("e_plane", ["normalization", "splitting_discriminant"], -5.7),
     "e_plane: normalization splitting_discriminant -5.7 is not an integer"),
    (_set("e_plane", ["normalization", "weierstrass", 3], -3.0),
     "e_plane: normalization weierstrass -3.0 is not an integer"),
    (_set("e_plane", ["normalization", "weierstrass", 0], True),
     "e_plane: normalization weierstrass True is not an integer"),
    (_set("e_plane", ["normalization", "nodes", "order"], "5"),
     "e_plane: normalization nodes.order '5' is not an integer"),
    (_set("e_plane", ["normalization", "nodes", "exponents", 1, 2], False),
     "e_plane: normalization nodes.exponents False is not an integer"),
]


def test_loader_refusals():
    # each structural refusal of catalog_from_json, on an edited copy of
    # the shipped catalog, which itself loads
    catalog_from_json(copy.deepcopy(SHIPPED))
    for edit, why in LOADER_REFUSALS:
        doc = copy.deepcopy(SHIPPED)
        edit(doc)
        with pytest.raises(ValidationError, match=why):
            catalog_from_json(doc)


def test_the_shipped_catalog_is_parsed_once_and_not_aliased(tmp_path):
    # load_catalog() parses and validates catalog.json once per process,
    # read-only; the stored document is parsed anew on each read, so
    # editing one, known blocks included, leaves the shared catalog as it
    # was.  An explicit path is read anew
    assert load_catalog() is load_catalog()
    fresh = catalog_from_json(catalog._catalog_doc())
    assert fresh is not load_catalog()

    def known(cat):          # known has compare=False: compared as dicts
        return {vid: v.known for vid, v in cat.varieties.items()}

    doc = catalog._catalog_doc()
    for v in doc["varieties"]:
        if v["known"]:
            v["known"].clear()
    assert catalog._catalog_doc() == SHIPPED != doc
    assert load_catalog() == fresh and known(load_catalog()) == known(fresh)
    assert load_catalog().variety("schoen_quotient").known["resolved_b2"] == 85
    # and the shared catalog itself is read-only
    known_block = load_catalog().variety("schoen_quotient").known
    with pytest.raises(TypeError):
        known_block["resolved_b2"] = 0
    with pytest.raises(TypeError):
        del load_catalog().varieties["schoen_quotient"]
    with pytest.raises(TypeError):
        load_catalog().involutions["iota_z"] = None
    with pytest.raises(AttributeError):
        known_block["forms"].append("f9")
    assert load_catalog() == fresh and known(load_catalog()) == known(fresh)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(SHIPPED))
    assert load_catalog(path) is not load_catalog(path)
    assert load_catalog(path) == fresh and known(load_catalog(path)) == \
        known(fresh)


def test_model_maps_onto_declared_model():
    doc = copy.deepcopy(SHIPPED)
    for v in doc["varieties"]:
        if v["id"] == "schoen_y":
            del v["count_model"]
    with pytest.raises(ValidationError, match="schoen_y"):
        catalog_from_json(doc)


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


def _hessian_classes(spec, p):
    """kronecker((-1)^(n/2) det H, p) at every F_p-rational node of spec,
    H the Hessian mod p of its equation in the affine chart of the node's
    first nonzero coordinate (that row and column deleted)."""
    eq = spec.equations[0]
    nv = spec.ambient.nvars
    second = [[catalog._partial(catalog._partial(eq, i), j)
               for j in range(nv)] for i in range(nv)]

    def value(poly, point):
        return sum(m.coefficient * math.prod(x ** e for x, e in
                                             zip(point, m.exponents))
                   for m in poly) % p

    classes = []
    for point in singular_points(spec, p):
        first = next(i for i, x in enumerate(point) if x)
        chart = [i for i in range(nv) if i != first]
        hessian = [[value(second[i][j], point) for j in chart] for i in chart]
        sign = (-1) ** (len(chart) // 2)
        classes.append(kronecker(sign * catalog._det(hessian), p))
    return classes


def test_splitting_discriminant_from_the_hessians():
    # a node's quadric splits, its rulings or branches rational, exactly
    # when (-1)^(n/2) det of its n x n Hessian is a square: that class is
    # kronecker(D, p) for the D each variety declares
    declared = {vid: CAT.variety(vid).known["splitting_discriminant"]
                for vid in cli._MODELS}
    assert all(type(d) is int for d in declared.values()), declared
    # the quotient's 60 free node pairs have schoen_x's local rings; its
    # nodes over the fixed curve's nodes are checked by the match rows
    assert declared["schoen_quotient"] == declared["schoen_x"]
    ep = CAT.variety("e_plane")
    cases = [(CAT.variety("schoen_x"), declared["schoen_x"]),
             (CAT.variety("schoen_y"), declared["schoen_y"]),
             (ep, ep.normalization.splitting_discriminant)]
    for spec, d in cases:
        for p in (3, 7, 11, 13, 17, 19, 31, 41):
            classes = _hessian_classes(spec, p)
            if spec.dimension == 3:
                assert len(classes) == (125 if p % 5 == 1 else 1)
            assert classes and set(classes) == {kronecker(d, p)}, \
                (spec.id, p, classes)


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
    # a modulus that is not prime is invalid input, not a scan mod n
    for p in (9, 1):
        with pytest.raises(ValidationError, match=f"{p} is not prime"):
            singular_points(CAT.variety("e_plane"), p)


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
    n = nonresidue(p)
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
              for f in _restrict(spec.equations[0], nonresidue(p)))
    rational = np.logical_and.reduce(
        [np.broadcast_to(b, re.shape) == 0 for b in coords[1::2]])
    assert np.count_nonzero(rational) == p ** (nv - 1 - lead)
    assert not im[rational].any()
    at = [np.broadcast_to(a, re.shape)[rational] for a in coords[::2]]
    assert (re[rational] == _eval_mono_list(spec.equations[0], at, p)).all()


def _b_parities(eq, n):
    """The total degrees mod 2 in b_0, b_1, ... of the monomials of R and
    of I in _restrict(eq, n), as two sets."""
    return [{sum(m.exponents[1::2]) % 2 for m in part}
            for part in _restrict(eq, n)]


def test_restriction_parity_in_b():
    # conjugation a + b s -> a - b s negates every b: it fixes R, whose
    # monomials are even in the b's, and negates I, whose monomials are
    # odd; the F_{p^2} count folds its grid on this (counting._folded)
    for v in CAT.varieties.values():
        for eq in v.equations:
            for p in (3, 5, 7, 11):
                assert _b_parities(eq, nonresidue(p)) == [{0}, {1}], (v.id, p)


@settings(max_examples=60, deadline=None, database=None)
@given(_homogeneous(), st.integers(-13, 13).filter(bool))
def test_restriction_parity_in_b_random(spec, n):
    re, im = _b_parities(spec.equations[0], n)
    assert re <= {0} and im <= {1}


def test_ext_evaluator_frobenius():
    # x^p is the conjugation a + bs -> a - bs, and x^(p^2) = x
    for p in (3, 7, 11, 13):
        a, b = _grid(p, [None, None])
        n = nonresidue(p)
        for e, want in ((p, (a, -b % p)), (p * p, (a, b))):
            got = [_eval_mono_list(f, [a, b], p)
                   for f in _restrict((Monomial(1, (e,)),), n)]
            assert all((g == w).all() for g, w in zip(got, want))
    # products of residues stay below p^2 < 2^62 only for p < 2^31
    with pytest.raises(ValidationError, match="2\\^31"):
        _eval_mono_list((Monomial(1, (2,)),), _grid(3, [None]), 1 << 31)


_BIG = (1 << 31) - 1      # the largest prime the evaluator takes


@st.composite
def _mono_list(draw, nvars, p):
    """A monomial list in nvars variables, maybe empty: total degrees up to
    8 (at least 3 at _BIG, where reductions then fire between Horner
    steps), exponents drawn from a small pool so that they repeat, and
    coefficients negative, large or divisible by p."""
    lo = 3 if p == _BIG else 0
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        deg = draw(st.integers(lo, 8))
        cuts = sorted(draw(st.integers(0, deg)) for _ in range(nvars - 1))
        pool.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [deg])))
    coeff = (st.integers(-10 ** 12, 10 ** 12)
             | st.integers(-3, 3).map(lambda k: k * p))
    return [Monomial(draw(coeff), draw(st.sampled_from(pool)))
            for _ in range(draw(st.integers(0, 6)))]


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 4), st.sampled_from((2, 3, 5, 7, _BIG)), st.booleans(),
       st.data())
def test_evaluator_matches_python_ints(nvars, p, on_grid, data):
    eq = data.draw(_mono_list(nvars, p))
    residue = st.integers(0, p - 1)
    if on_grid:      # a _grid with fixed and free coordinates, maybe all fixed
        coord = residue if p == _BIG else st.none() | residue
        coords = _grid(p, [data.draw(coord) for _ in range(nvars)])
    else:            # equal-length point arrays, as nodal_curve passes them
        n = data.draw(st.integers(1, 6))
        coords = [np.array(data.draw(st.lists(residue, min_size=n,
                                              max_size=n)), dtype=np.int64)
                  for _ in range(nvars)]
    got = _eval_mono_list(eq, coords, p)
    shape = np.broadcast_shapes(*(x.shape for x in coords))
    assert type(got) is np.ndarray and got.dtype == np.int64
    assert got.shape == shape and got.flags.writeable
    assert not any(np.shares_memory(got, x) for x in coords)
    pts = [np.broadcast_to(x, shape) for x in coords]
    for idx in np.ndindex(shape):
        pt = [int(x[idx]) for x in pts]
        want = sum(m.coefficient * math.prod(x ** e for x, e in
                                             zip(pt, m.exponents))
                   for m in eq) % p
        assert int(got[idx]) == want


def test_evaluator_reduces_inside_the_chain(monkeypatch):
    # at p = 2^31 - 1 the accumulator of x^3 + x^2 + x + 1 would reach 2^62
    # at its third Horner step, so it is reduced there first
    reduce, calls = catalog._reduce, []
    monkeypatch.setattr(catalog, "_reduce",
                        lambda v, p: calls.append(p) or reduce(v, p))
    x = np.array([_BIG - 1, _BIG - 2, 12345, 0], dtype=np.int64)
    got = _eval_mono_list([Monomial(1, (e,)) for e in range(4)], [x], _BIG)
    assert calls == [_BIG]
    assert got.tolist() == [sum(v ** e for e in range(4)) % _BIG
                            for v in x.tolist()]
    # the empty list is zero, on the broadcast shape
    zero = _eval_mono_list((), _grid(5, [None, 2, None]), 5)
    assert zero.shape == (5, 5) and not zero.any()
