"""Variety catalog: dataclasses, the JSON reader, evaluation, the
dense evaluator, and the node search.

A variety is a list of equations over an ambient space; each equation is a
list of integer monomials.  The shipped catalog lives in data/catalog.json;
the JSON format is known only to catalog_from_json, which reads it, and no
code writes a catalog.

A variety may declare a count_model: its equations as two variable groups
joined by a shared variable (CountModel), or a linear map onto another
variety's model.  catalog_from_json expands each declaration symbolically
with _compose_equation and refuses one that does not give the stored
equations, so the counting kernel it selects cannot count a wrong model.

A nodal plane curve may declare a normalization: a Weierstrass model
[a1, a2, a3, a4, a6] of the smooth curve, its nodes as exponent vectors of
a root of unity (RootNodes), and the discriminant whose square root splits
every node's tangent cone.  catalog_from_json refuses a block whose
Weierstrass discriminant is 0 or has a prime factor, as do the root's order
and the splitting discriminant, outside the variety's bad_primes.
lefschetz.declared_curve reads the curve from it in O(p), with no scan.

Every dense path (the chart, twisted, weighted, degree-2 and double-cover
counts, the torus count's oracle and the node search) is built from four
helpers: _charts lists the affine charts, cut into slabs when large;
_grid gives a chart's coordinates as arrays that broadcast against each
other; _eval_mono_list evaluates a monomial list mod p on them; and
_restrict turns a polynomial over F_{p^2} into its pair of polynomials over
F_p (Weil restriction), so that F_{p^2} counts run on F_p grids too.
counting's elimination, which also counts the torus, builds its
coefficients and root tables on _grid and _eval_mono_list as well.
The field tables and the evaluator's powers are the ffield module's.

_eval_mono_list is a multivariate Horner scheme: the monomials are grouped
by the exponent of the last coordinate, each group's coefficient polynomial
is evaluated the same way on the earlier coordinates (on a grid, 1/p of its
size), and Horner steps combine them in place on the full grid.  The
grouping tree depends on the monomials only and is cached per equation
(_horner_plan).  Reduction mod p is lazy under a tracked bound, so that no
intermediate reaches 2^62 for the moduli p < 2^31 it accepts; the bound is
checked by plain ifs, which python -O keeps.  Large arrays are reduced by
ffield.reduce_mod.

The one node search, _singular_scan, gives chart by chart the points of a
hypersurface and the mask of its singular ones, with no partial evaluated
on a chart without points; singular_points and lefschetz.nodal_curve both
read it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from importlib import resources
from math import comb
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import RefusalError, ValidationError
from .ffield import _BOUND, is_prime, power, reduce_mod, require_prime

AMBIENT_KINDS = ("projective", "weighted_projective", "torus", "double_cover_p3")
TORUS_FAMILY = "hulek_verrill"   # the family count_torus names its records by


@dataclass(frozen=True)
class Monomial:
    coefficient: int
    exponents: tuple

    def degree(self, weights=None):
        if weights is None:
            return sum(self.exponents)
        return sum(w * e for w, e in zip(weights, self.exponents))


@dataclass(frozen=True)
class Ambient:
    kind: str
    n: int = 0
    weights: tuple = ()

    def __post_init__(self):
        if self.kind not in AMBIENT_KINDS:
            raise ValidationError(f"unknown ambient kind {self.kind!r}")

    @property
    def nvars(self):
        """Number of coordinates an equation in this ambient uses."""
        if self.kind == "projective":
            return self.n + 1
        if self.kind == "weighted_projective":
            return len(self.weights)
        if self.kind == "torus":
            return self.n + 1
        return 4  # double_cover_p3: linear forms on P^3

    @property
    def grading(self):
        if self.kind == "weighted_projective":
            return self.weights
        return (1,) * self.nvars


class CountGroup(NamedTuple):
    """One variable group (a, b) of a two-group count model.  r and m are
    monomial lists in (a, b, s), s the model's shared variable; m has no s."""
    vars: tuple                # ambient indices of (a, b)
    r: tuple
    m: tuple = ()


class CountModel(NamedTuple):
    """The declared two-group structure of a variety's equations:

        r1(a1, b1, s) + r2(a2, b2, s) + coupling s^e m1(a1, b1) m2(a2, b2) = 0,

    e fixed by homogeneity, and with chi the index of a variable y, a
    second equation y^2 = b1 b2.  A model declared as a linear map onto
    another variety's model (onto, map: x = map . y) carries that model's
    groups, in its coordinates; the kernel then counts the target, which is
    the same variety at every prime not dividing unit = det(map) times the
    ratios of the composed equations to the target's.  weight is the common
    weight of b1, b2 and y; s, a1 and a2 have weight 1."""
    shared: int
    groups: tuple              # two CountGroup
    coupling: int
    chi: int | None = None
    weight: int = 1
    onto: str | None = None
    map: tuple | None = None
    unit: int = 1


class RootNodes(NamedTuple):
    """Nodes (zeta^a_0 : ... : zeta^a_n) of a hypersurface, zeta a primitive
    root of unity of the given order, as their exponent vectors a."""
    order: int
    exponents: tuple

    def rational(self, p):
        """How many are F_p-rational, p prime to order: Frobenius takes a to
        p a, so a is rational when p a = a + c (1, ..., 1) mod order for
        some c, that is when (p - 1) a is constant mod order."""
        m = self.order
        return sum(len({(p - 1) * e % m for e in a}) == 1
                   for a in self.exponents)


class Normalization(NamedTuple):
    """The declared normalization of a nodal plane curve: the Weierstrass
    model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 of its smooth model,
    its nodes, and the discriminant D such that every rational node splits
    over F_p exactly when D is a square mod p."""
    weierstrass: tuple         # (a1, a2, a3, a4, a6)
    nodes: RootNodes
    splitting_discriminant: int

    def b_invariants(self):
        """(b2, b4, b6, b8) of the Weierstrass model."""
        a1, a2, a3, a4, a6 = self.weierstrass
        return (a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6,
                a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
                - a4 * a4)

    def discriminant(self):
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


@dataclass(frozen=True)
class VarietySpec:
    id: str
    ambient: Ambient
    equations: tuple           # tuple of equations, each a tuple of Monomial
    dimension: int
    bad_primes: frozenset
    provenance: str
    known: dict = field(default=None, compare=False)
    count_model: CountModel | None = None
    normalization: Normalization | None = None

    def __post_init__(self):
        if not self.bad_primes:
            raise ValidationError(f"{self.id}: bad_primes must be nonempty")
        grading = self.ambient.grading
        nv = self.ambient.nvars
        for k, eq in enumerate(self.equations):
            if not eq:
                raise ValidationError(f"{self.id}: equation {k} is empty")
            degs = set()
            for mono in eq:
                if len(mono.exponents) != nv:
                    raise ValidationError(
                        f"{self.id}: monomial arity {len(mono.exponents)} != {nv}")
                degs.add(mono.degree(grading))
            if len(degs) != 1:
                raise ValidationError(
                    f"{self.id}: equation {k} not homogeneous, degrees {sorted(degs)}")


@dataclass(frozen=True)
class InvolutionSpec:
    id: str
    variety_id: str
    matrix: tuple              # tuple of row tuples, integer entries

    def __post_init__(self):
        m = self.matrix
        n = len(m)
        if any(len(row) != n for row in m):
            raise ValidationError(f"{self.id}: matrix not square")
        for i in range(n):
            for j in range(n):
                v = sum(m[i][k] * m[k][j] for k in range(n))
                if v != (1 if i == j else 0):
                    raise ValidationError(f"{self.id}: matrix squared is not the identity")

    def is_diagonal(self):
        return all(self.matrix[i][j] == 0
                   for i in range(len(self.matrix))
                   for j in range(len(self.matrix)) if i != j)

    def diagonal(self):
        return tuple(self.matrix[i][i] for i in range(len(self.matrix)))


@dataclass(frozen=True)
class Catalog:
    varieties: dict
    involutions: dict

    def variety(self, vid):
        try:
            return self.varieties[vid]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown variety {vid!r}") from None

    def involution(self, iid):
        try:
            return self.involutions[iid]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown involution {iid!r}") from None


# ----------------------------------------------------------- serialization

def _ambient_from_json(d):
    kind = d["kind"]
    if kind in ("projective", "torus"):
        return Ambient(kind, n=d["n"])
    if kind == "weighted_projective":
        return Ambient(kind, weights=tuple(d["weights"]))
    return Ambient(kind)


def _poly_from_json(eq):
    return tuple(Monomial(int(c), tuple(int(e) for e in exps)) for c, exps in eq)


def _frozen(x):
    """x with its dicts read-only and its lists tuples, all the way down:
    one parsed catalog is shared by every caller of load_catalog()."""
    if isinstance(x, dict):
        return MappingProxyType({k: _frozen(y) for k, y in x.items()})
    if isinstance(x, list):
        return tuple(_frozen(y) for y in x)
    return x


def _variety_from_json(d):
    return VarietySpec(
        id=d["id"],
        ambient=_ambient_from_json(d["ambient"]),
        equations=tuple(_poly_from_json(eq) for eq in d["equations"]),
        dimension=int(d["dimension"]),
        bad_primes=frozenset(int(p) for p in d["bad_primes"]),
        known=_frozen(d.get("known")),
        provenance=d["provenance"],
    )


def _compose_equation(eq, matrix, nvars):
    """Substitute x_i -> sum_j matrix[i][j] x_j into a monomial list; the
    result is a dict from exponent tuples of length nvars to coefficients."""
    out = {}
    for mono in eq:
        terms = {(0,) * nvars: mono.coefficient}
        for i, e in enumerate(mono.exponents):
            row = matrix[i]
            for _ in range(e):
                nxt = {}
                for exps, c in terms.items():
                    for j, mij in enumerate(row):
                        if mij == 0:
                            continue
                        key = list(exps)
                        key[j] += 1
                        key = tuple(key)
                        nxt[key] = nxt.get(key, 0) + c * mij
                terms = nxt
        for exps, c in terms.items():
            out[exps] = out.get(exps, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def _ratio(poly, ref):
    """The integer lam with poly = lam * ref, both dicts from exponents to
    coefficients, or None when there is none."""
    if not ref or set(poly) != set(ref):
        return None
    lams = {poly[e] // ref[e] if poly[e] % ref[e] == 0 else None for e in ref}
    return lams.pop() if len(lams) == 1 else None


def _det(m):
    if not m:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j, x in enumerate(m[0]) if x)


def _declared_model(spec, d):
    """The CountModel that d declares for spec.  The declaration is
    expanded symbolically and must give the stored equations exactly."""
    def bad(why):
        return ValidationError(f"{spec.id}: count_model {why}")

    nv, wt = spec.ambient.nvars, spec.ambient.grading
    groups = tuple(CountGroup(tuple(int(i) for i in g["vars"]),
                              _poly_from_json(g["r"]), _poly_from_json(g["m"]))
                   for g in d["groups"])
    shared, coupling = int(d["shared"]), int(d["coupling"])
    chi = None if d.get("chi") is None else int(d["chi"])
    if len(groups) != 2 or any(len(g.vars) != 2 for g in groups):
        raise bad("needs two groups of two variables")
    (a1, b1), (a2, b2) = (g.vars for g in groups)
    used = [shared, a1, b1, a2, b2] + ([chi] if chi is not None else [])
    if len(set(used)) != len(used) or not all(0 <= i < nv for i in used):
        raise bad(f"variables {used} are not distinct indices below {nv}")
    if any(len(m.exponents) != 3 for g in groups for m in g.r + g.m):
        raise bad("monomials must be in (a, b, s)")
    if any(m.exponents[2] for g in groups for m in g.m):
        raise bad("m may not contain the shared variable")
    weight = wt[b1]
    if any(wt[i] != 1 for i in (shared, a1, a2)) or \
            any(wt[i] != weight for i in used[4:]):
        raise bad("needs weight 1 on s, a1, a2 and one weight on b1, b2, chi")
    if chi is not None and weight % 2:
        raise bad("chi needs an even weight, under which chi(b) is invariant")
    g2 = groups[1]
    if coupling and (not groups[0].m or not g2.m
                     or any(m.exponents[2] for m in g2.r)
                     or len({m.degree((1, weight)) for m in g2.m}) != 1):
        raise bad("coupled needs m in both groups, homogeneous m2, and r2 "
                  "free of the shared variable")

    def embed(poly, g):
        rows = [[int(k == i) for k in range(nv)] for i in g.vars + (shared,)]
        return _compose_equation(poly, rows, nv)

    eq = {}
    for g in groups:
        for e, c in embed(g.r, g).items():
            eq[e] = eq.get(e, 0) + c
    deg = spec.equations[0][0].degree(wt) if spec.equations else 0
    if coupling:
        for e1, c1 in embed(groups[0].m, groups[0]).items():
            for e2, c2 in embed(g2.m, g2).items():
                e = [x + y for x, y in zip(e1, e2)]
                e[shared] = deg - sum(w * x for w, x in zip(wt, e))
                if e[shared] < 1:
                    raise bad("coupling term has no positive power of s")
                eq[tuple(e)] = eq.get(tuple(e), 0) + coupling * c1 * c2
    expected = [{e: c for e, c in eq.items() if c}]
    if chi is not None:
        e, y = [0] * nv, [0] * nv
        e[b1] = e[b2] = 1
        y[chi] = 2
        expected.append({tuple(e): 1, tuple(y): -1})
    if [{m.exponents: m.coefficient for m in q} for q in spec.equations] \
            != expected:
        raise bad("does not expand to the stored equations")
    return CountModel(shared, groups, coupling, chi, weight)


def _mapped_model(spec, d, target):
    """The model of target, reached from spec by the map d declares: each
    equation of spec composed with the map must be an integer multiple of
    the matching equation of target."""
    m = tuple(tuple(int(x) for x in row) for row in d["map"])
    tm = target.count_model
    if tm is None or tm.onto is not None:
        raise ValidationError(f"{spec.id}: count_model maps onto {target.id}, "
                              "which declares no two-group model of its own")
    nv = spec.ambient.nvars
    if (spec.ambient.kind != "projective" or target.ambient != spec.ambient
            or len(target.equations) != len(spec.equations)
            or len(m) != nv or any(len(row) != nv for row in m)):
        raise ValidationError(f"{spec.id}: count_model map does not fit "
                              f"{target.id}")
    unit = _det(m)
    for eq, teq in zip(spec.equations, target.equations):
        unit *= _ratio(_compose_equation(eq, m, nv),
                       {x.exponents: x.coefficient for x in teq}) or 0
    if not unit:
        raise ValidationError(f"{spec.id}: count_model map does not take the "
                              f"equations of {spec.id} to those of {target.id}")
    return tm._replace(onto=target.id, map=m, unit=abs(unit))


def _declared_normalization(spec, d):
    """The Normalization that d declares for spec.  Its Weierstrass model
    must have good reduction, its root of unity must exist and its
    splitting discriminant must be a unit at every good prime of spec."""
    def bad(why):
        return ValidationError(f"{spec.id}: normalization {why}")

    def integer(x, key):
        if type(x) is not int:
            raise bad(f"{key} {x!r} is not an integer")
        return x

    a = tuple(integer(x, "weierstrass") for x in d["weierstrass"])
    nodes = RootNodes(integer(d["nodes"]["order"], "nodes.order"),
                      tuple(tuple(integer(e, "nodes.exponents") for e in v)
                            for v in d["nodes"]["exponents"]))
    norm = Normalization(a, nodes, integer(d["splitting_discriminant"],
                                           "splitting_discriminant"))
    m, nv = nodes.order, spec.ambient.nvars
    if len(a) != 5:
        raise bad("needs the five coefficients a1, a2, a3, a4, a6")
    if m < 1 or any(len(v) != nv or not all(0 <= e < m for e in v)
                    for v in nodes.exponents):
        raise bad(f"nodes must be vectors of {nv} exponents mod {m}")
    if len({tuple((e - v[0]) % m for e in v) for v in nodes.exponents}) \
            != len(nodes.exponents):
        raise bad("declares a node twice, up to scaling")
    delta, disc = norm.discriminant(), norm.splitting_discriminant
    if delta == 0 or disc == 0:
        raise bad(f"has discriminant {delta} and splitting discriminant "
                  f"{disc}; neither may be 0")
    rest = abs(delta * m * disc)
    for q in spec.bad_primes:
        while rest % q == 0:
            rest //= q
    if rest != 1:
        raise bad(f"discriminant {delta}, root order {m} or splitting "
                  f"discriminant {disc} has the factor {rest}, prime to "
                  f"the bad primes {sorted(spec.bad_primes)}")
    return norm


def catalog_from_json(doc):
    """The Catalog a parsed catalog document declares.  A key an entry
    lacks, or a value of the wrong type or form, is a ValidationError that
    names the entry, by its id or else its index, and that key or value."""
    entry = "catalog"
    try:
        vs = {}
        for i, d in enumerate(doc["varieties"]):
            entry = f"varieties[{i}]"           # until its id is read
            entry = f"variety {d['id']!r}"
            v = _variety_from_json(d)
            if v.id in vs:
                raise ValidationError(f"duplicate variety id {v.id!r}")
            disc = (v.known or {}).get("splitting_discriminant", 0)
            if type(disc) is not int:
                raise ValidationError(f"{v.id}: splitting_discriminant "
                                      f"{disc!r} is not an integer")
            if "count_model" in d and "onto" not in d["count_model"]:
                v = replace(v, count_model=_declared_model(v, d["count_model"]))
            if "normalization" in d:
                v = replace(v, normalization=_declared_normalization(
                    v, d["normalization"]))
            vs[v.id] = v
        # a model mapped onto another variety's is read once all are
        mapped = {d["id"]: d["count_model"] for d in doc["varieties"]
                  if "onto" in d.get("count_model", ())}
        for vid, d in mapped.items():
            entry = f"variety {vid!r}"
            if d["onto"] not in vs:
                raise ValidationError(f"{vid}: count_model maps onto unknown "
                                      f"variety {d['onto']!r}")
            vs[vid] = replace(
                vs[vid], count_model=_mapped_model(vs[vid], d, vs[d["onto"]]))
        invs = {}
        for i, d in enumerate(doc.get("involutions", [])):
            entry = f"involutions[{i}]"
            inv = InvolutionSpec(d["id"], d["variety_id"], tuple(
                tuple(int(x) for x in row) for row in d["matrix"]))
            if inv.variety_id not in vs:
                raise ValidationError(f"involution {inv.id!r} references unknown variety")
            invs[inv.id] = inv
    except KeyError as e:
        raise ValidationError(f"{entry}: no key {e}") from None
    except (AttributeError, TypeError, ValueError) as e:
        raise ValidationError(f"{entry}: {e}") from None
    return Catalog(MappingProxyType(vs), MappingProxyType(invs))


def _catalog_doc(path=None):
    """The stored catalog document as json parses it: the shipped
    data/catalog.json, or the file at path.  Each call parses anew."""
    if path is None:
        return json.loads(resources.files("frobtrace").joinpath(
            "data/catalog.json").read_text())
    with open(path) as fh:
        return json.load(fh)


def load_catalog(path=None):
    """Load the shipped catalog, parsed and validated once per process, or
    one from an explicit path, read on every call.  Its mappings and known
    blocks are read-only, since every caller shares the shipped one."""
    if path is None:
        return _shipped_catalog()
    return catalog_from_json(_catalog_doc(path))


@lru_cache(maxsize=1)
def _shipped_catalog():
    return catalog_from_json(_catalog_doc())


# -------------------------------------------------------------- evaluation

def evaluate(spec, point, p):
    """Evaluate every equation of spec at an integer point mod p.

    Returns a tuple of residues, one per equation.
    """
    if len(point) != spec.ambient.nvars:
        raise ValidationError(f"point arity {len(point)} != {spec.ambient.nvars}")
    out = []
    for eq in spec.equations:
        s = 0
        for mono in eq:
            t = mono.coefficient
            for x, e in zip(point, mono.exponents):
                if e:
                    t = t * pow(int(x), e, p)
            s += t
        out.append(s % p)
    return tuple(out)


def _partial(eq, var):
    """Formal partial derivative of an equation (monomial list)."""
    out = []
    for mono in eq:
        e = mono.exponents[var]
        if e == 0:
            continue
        exps = list(mono.exponents)
        exps[var] = e - 1
        out.append(Monomial(mono.coefficient * e, tuple(exps)))
    return tuple(out)


_MAX_SLAB_CELLS = 4_000_000      # cells evaluated per chunk over F_p
_MAX_EXT_CELLS = 60_000_000      # largest F_{p^2} chart, p^(2 (nvars-1))
_MAX_SCAN_CELLS = 40_000_000     # node search, p^(nvars-1) cells over p


def _require_good(spec, p):
    """ValidationError unless p is prime, RefusalError at a bad prime of
    spec: reductions there are not the varieties this catalog describes."""
    require_prime(p)
    if p in spec.bad_primes:
        raise RefusalError(f"{spec.id}: {p} is a bad prime")


def _require_cells(what, p, cells, limit):
    """Refuse, with a ValidationError naming the largest prime the budget
    accepts, a count at p whose cells(p) cells exceed limit: the one
    cell-budget refusal.  cells grows with p; every limit admits p = 2."""
    if cells(p) > limit:
        lo, hi = 2, p                # cells(lo) <= limit < cells(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if cells(mid) <= limit else (lo, mid)
        while not is_prime(lo):
            lo -= 1
        raise ValidationError(f"{what} at p={p} needs {cells(p)} cells, over "
                              f"the budget of {limit}; the largest prime it "
                              f"accepts is {lo}")


def _grid(p, fixed):
    """Coordinate arrays for the points whose coordinate i is fixed[i], an
    int, or runs over F_p where fixed[i] is None.  Each free coordinate is
    arange(p) on an axis of its own and a fixed one is a single cell, so the
    arrays broadcast against each other to the grid without building it."""
    free = [i for i, x in enumerate(fixed) if x is None]
    shape = [1] * len(free)
    coords = []
    for i, x in enumerate(fixed):
        if x is None:
            axis = shape.copy()
            axis[free.index(i)] = p
            coords.append(np.arange(p, dtype=np.int64).reshape(axis))
        else:
            coords.append(np.full(shape, x, dtype=np.int64))
    return coords


def _charts(p, nvars, degree=1):
    """The chunk list of a dense count on P^{nvars-1} over F_{p^degree}: the
    affine charts x_lead = 1, x_i = 0 for i < lead, each as a fixed list for
    _grid.  Over F_p a chart of more than _MAX_SLAB_CELLS cells is cut into
    p slabs on its first free coordinate.  Over F_{p^2} a coordinate is the
    pair (a, b) of a + b s, as _restrict takes it; charts are not cut, and
    charts beyond _MAX_EXT_CELLS cells are refused."""
    if degree == 2:
        _require_cells(f"degree-2 chart of P^{nvars - 1}", p,
                       lambda q: q ** (2 * (nvars - 1)), _MAX_EXT_CELLS)
        return [[0, 0] * lead + [1, 0] + [None, None] * (nvars - lead - 1)
                for lead in range(nvars)]
    chunks = []
    for lead in range(nvars):
        head, free = [0] * lead + [1], nvars - lead - 1
        if free and p ** free > _MAX_SLAB_CELLS:
            chunks.extend(head + [s] + [None] * (free - 1) for s in range(p))
        else:
            chunks.append(head + [None] * free)
    return chunks


@lru_cache(maxsize=1024)
def _horner_plan(eq):
    """The Horner tree of a tuple of monomials, independent of p.  A node
    is an exact integer (a constant) or (v, head, steps): the value is
    head, then value * x_v^gap + kid for each (gap, kid) in steps, where
    head and the kids are the coefficients of the falling powers of x_v,
    the last coordinate used, and a final kid 0 multiplies by the lowest
    power when it is not x_v^0."""
    terms = {}
    for mono in eq:
        terms[mono.exponents] = terms.get(mono.exponents, 0) + mono.coefficient
    terms = [(e, c) for e, c in terms.items() if c]
    return _horner_node(terms, max((len(e) for e, _ in terms), default=0) - 1)


def _horner_node(terms, v):
    while v >= 0 and not any(e[v] for e, _ in terms):
        v -= 1
    if v < 0:
        return sum(c for _, c in terms)
    groups = {}
    for e, c in terms:
        groups.setdefault(e[v], []).append((e, c))
    exps = sorted(groups, reverse=True)
    kids = [_horner_node(groups[d], v - 1) for d in exps] + [0]
    return v, kids[0], tuple((a - b, kid) for a, b, kid
                             in zip(exps, exps[1:] + [0], kids[1:]) if a > b)


def _horner(node, coords, shapes, p):
    """(value, bound) of a plan node, value an int or a fresh int64 array
    and 0 <= value <= bound < _BOUND.  Before a step acc * x^gap + kid the
    accumulator is reduced when bound (p - 1) + kid's bound would reach
    _BOUND, and the kid too if that is not enough; as p < 2^31, (p - 1)^2
    + p - 1 < _BOUND.  full marks an accumulator of the node's whole shape
    shapes[v]: the first step writes one, and later steps work in place."""
    if type(node) is int:
        c = node % p
        return c, c
    v, acc, steps = node
    x, shape, q = coords[v], shapes[v], p - 1
    acc, bound = _horner(acc, coords, shapes, p)
    full = type(acc) is np.ndarray and acc.shape == shape
    for gap, kid in steps:
        inner, ib = _horner(kid, coords, shapes, p)
        if bound * q + ib >= _BOUND:
            acc, bound = _reduce(acc, p)
            if bound * q + ib >= _BOUND:
                inner, ib = _reduce(inner, p)
        xg = power(x, gap, p)
        if full:
            np.multiply(acc, xg, out=acc)
        else:
            acc = acc * xg
            full = type(acc) is np.ndarray and acc.shape == shape
        if not full:
            acc = np.add(acc, inner, out=np.empty(shape, dtype=np.int64))
            full = True
        elif ib:
            np.add(acc, inner, out=acc)
        bound = bound * q + ib
    return acc, bound


def _reduce(value, p):
    """(value mod p, p - 1); an array is reduced in place, as every array
    _horner holds is its own."""
    if type(value) is np.ndarray:
        return reduce_mod(value, p), p - 1
    return value % p, p - 1


def _eval_mono_list(eq, coords, p):
    """Values mod p of a monomial list on coordinate arrays that broadcast
    against each other, as _grid builds them, or on equal-length point
    arrays; the empty list is the zero polynomial.  The result is a fresh,
    writable int64 array of the broadcast shape (() when every coordinate
    is fixed) with values in [0, p), never a view of a coordinate.

    Multivariate Horner on the tree _horner_plan caches per monomial
    tuple, with coefficients reduced mod p at its leaves: on a _grid each
    coefficient polynomial runs on a grid 1/p the size, and the full grid
    sees one multiply and one add per distinct exponent of the last
    coordinate.  Coordinates are residues < p, and p < 2^31 is enforced;
    reduction is lazy, before a step that could reach 2^62 (checked by an
    if, so also under python -O), and once at the end, in place."""
    if p >= 1 << 31:
        raise ValidationError(f"modulus {p} out of supported range (< 2^31)")
    # shapes[v]: the broadcast shape of x_0, ..., x_v
    shapes = [np.broadcast(*coords[:v + 1]).shape for v in range(len(coords))]
    shape = np.broadcast(*coords).shape
    value, _ = _horner(_horner_plan(tuple(eq)), coords, shapes, p)
    if type(value) is np.ndarray and value.shape == shape:
        return reduce_mod(value, p)
    return np.remainder(value, p, out=np.empty(shape, dtype=np.int64))


def _zeros(eqs, coords, p):
    """Mask of the common zeros of a list of monomial lists on coords."""
    mask = np.ones(np.broadcast_shapes(*(np.shape(x) for x in coords)),
                   dtype=bool)
    for eq in eqs:
        mask &= _eval_mono_list(eq, coords, p) == 0
    return mask


def _restrict(eq, n):
    """Weil restriction of a monomial list from F_{p^2} = F_p[s]/(s^2 - n)
    to F_p: substituting x_i = a_i + b_i s gives R + I s, and the pair
    (R, I) of monomial lists in (a_0, b_0, a_1, b_1, ...) is returned.  A
    point of F_{p^2} is a zero exactly when it is a common zero of R and I.
    Coefficients are exact integers; the evaluator reduces them mod p.
    With n None the field is F_p itself, and (eq,) is returned."""
    if n is None:
        return (eq,)
    parts = ({}, {})
    for mono in eq:
        terms = {((), 0): mono.coefficient}       # (exponents, s-degree)
        for e in mono.exponents:
            terms = {(exps + (e - j, j), k + j): c * comb(e, j)
                     for (exps, k), c in terms.items() for j in range(e + 1)}
        for (exps, k), c in terms.items():
            part = parts[k % 2]
            part[exps] = part.get(exps, 0) + c * n ** (k // 2)
    return tuple(tuple(Monomial(c, e) for e, c in part.items() if c)
                 for part in parts)


def _singular_scan(spec, p, n=None):
    """The one node search: for each chart of a hypersurface over F_p, or
    over F_{p^2} = F_p[s]/(s^2 - n) when n is given, the chart, the
    coordinates of the points on it (over F_{p^2} the pairs (a, b) of
    a + b s) and the mask of the singular points among them.

    Refuses bad primes (_require_good).  Only single-equation specs in
    straight projective space are supported; singular loci of the weighted
    complete intersections are tracked by the resolution bookkeeping
    instead.
    """
    _require_good(spec, p)
    if len(spec.equations) != 1:
        raise ValidationError(f"{spec.id}: singular_points needs a hypersurface")
    if spec.ambient.kind != "projective":
        raise ValidationError(f"{spec.id}: unsupported ambient for singular scan")
    nv = spec.ambient.nvars
    _require_cells("node search", p, lambda q: q ** (nv - 2), _MAX_SCAN_CELLS)
    eq = spec.equations[0]
    eqs = _restrict(eq, n)
    parts = [g for v in range(nv) for g in _restrict(_partial(eq, v), n)]
    for fixed in _charts(p, nv, 1 if n is None else 2):
        coords = _grid(p, fixed)
        on = _zeros(eqs, coords, p)
        at = [np.broadcast_to(x, on.shape)[on] for x in coords]
        # a chart with no point has no singular point: on[on] is empty
        yield fixed, at, _zeros(parts, at, p) if on.any() else on[on]


def singular_points(spec, p):
    """All F_p-rational singular points of a hypersurface, as normalized
    projective representatives (first nonzero coordinate scaled to 1)."""
    found = []
    for _, at, sing in _singular_scan(spec, p):
        found.extend(zip(*(x[sing].tolist() for x in at)))
    return sorted(found)
