"""Variety catalog: dataclasses, JSON (de)serialization, evaluation, the
dense evaluator, and singular point search.

A variety is a list of equations over an ambient space; each equation is a
list of integer monomials.  The shipped catalog lives in data/catalog.json
and round-trips through save_catalog byte-exactly.

Every dense path (the chart, twisted, weighted, torus, degree-2 and
double-cover counts, the singular scan and elliptic a_p) is built from four
helpers: _charts lists the affine charts, cut into slabs when large;
_grid gives a chart's coordinates as arrays that broadcast against each
other; _eval_mono_list evaluates a monomial list mod p on them; and
_restrict turns a polynomial over F_{p^2} into its pair of polynomials over
F_p (Weil restriction), so that F_{p^2} counts run on F_p grids too.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from math import comb

import numpy as np

from .errors import RefusalError, ValidationError

AMBIENT_KINDS = ("projective", "weighted_projective", "torus", "double_cover_p3")


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


@dataclass(frozen=True)
class VarietySpec:
    id: str
    ambient: Ambient
    equations: tuple           # tuple of equations, each a tuple of Monomial
    dimension: int
    bad_primes: frozenset
    provenance: str
    known: dict = field(default=None, compare=False)

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
        except KeyError:
            raise ValidationError(f"unknown variety {vid!r}") from None

    def involution(self, iid):
        try:
            return self.involutions[iid]
        except KeyError:
            raise ValidationError(f"unknown involution {iid!r}") from None


# ----------------------------------------------------------- serialization

def _ambient_to_json(a):
    if a.kind == "projective" or a.kind == "torus":
        return {"kind": a.kind, "n": a.n}
    if a.kind == "weighted_projective":
        return {"kind": a.kind, "weights": list(a.weights)}
    return {"kind": a.kind}


def _ambient_from_json(d):
    kind = d["kind"]
    if kind in ("projective", "torus"):
        return Ambient(kind, n=d["n"])
    if kind == "weighted_projective":
        return Ambient(kind, weights=tuple(d["weights"]))
    return Ambient(kind)


def _variety_to_json(v):
    return {
        "id": v.id,
        "ambient": _ambient_to_json(v.ambient),
        "dimension": v.dimension,
        "equations": [[[m.coefficient, list(m.exponents)] for m in eq]
                      for eq in v.equations],
        "bad_primes": sorted(v.bad_primes),
        "known": v.known,
        "provenance": v.provenance,
    }


def _variety_from_json(d):
    return VarietySpec(
        id=d["id"],
        ambient=_ambient_from_json(d["ambient"]),
        equations=tuple(tuple(Monomial(int(c), tuple(int(e) for e in exps))
                              for c, exps in eq)
                        for eq in d["equations"]),
        dimension=int(d["dimension"]),
        bad_primes=frozenset(int(p) for p in d["bad_primes"]),
        known=d.get("known"),
        provenance=d["provenance"],
    )


def catalog_from_json(doc):
    vs = {}
    for d in doc["varieties"]:
        v = _variety_from_json(d)
        if v.id in vs:
            raise ValidationError(f"duplicate variety id {v.id!r}")
        vs[v.id] = v
    invs = {}
    for d in doc.get("involutions", []):
        inv = InvolutionSpec(d["id"], d["variety_id"],
                             tuple(tuple(int(x) for x in row) for row in d["matrix"]))
        if inv.variety_id not in vs:
            raise ValidationError(f"involution {inv.id!r} references unknown variety")
        invs[inv.id] = inv
    return Catalog(vs, invs)


def catalog_to_json(cat):
    return {
        "varieties": [_variety_to_json(v) for _, v in sorted(cat.varieties.items())],
        "involutions": [{"id": i.id, "variety_id": i.variety_id,
                         "matrix": [list(r) for r in i.matrix]}
                        for _, i in sorted(cat.involutions.items())],
    }


def save_catalog(cat, path):
    text = json.dumps(catalog_to_json(cat), indent=1, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_catalog(path=None):
    """Load the shipped catalog, or one from an explicit path."""
    if path is None:
        text = resources.files("frobtrace").joinpath("data/catalog.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return catalog_from_json(json.loads(text))


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
        if p ** (2 * (nvars - 1)) > _MAX_EXT_CELLS:
            raise ValidationError(
                f"degree-2 count infeasible for p={p}, {nvars} variables")
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


def _eval_mono_list(eq, coords, p):
    """Values mod p of a monomial list on coordinate arrays that broadcast
    against each other, as _grid builds them; the empty list is the zero
    polynomial.  Each power x_i^e is built once, on the array of x_i alone,
    and a monomial is the broadcast product of its powers, so only the sum
    over monomials has the full shape.  Coordinates are residues < p, and
    p < 2^31 is enforced: every product is below p^2 < 2^62, and the sum
    below len(eq) p before its one reduction."""
    if p >= 1 << 31:
        raise ValidationError(f"modulus {p} out of supported range (< 2^31)")
    total = np.zeros(np.broadcast_shapes(*(np.shape(x) for x in coords)),
                     dtype=np.int64)
    powers = [[1] for _ in coords]
    for mono in eq:
        t = mono.coefficient % p
        for x, pw, e in zip(coords, powers, mono.exponents):
            while len(pw) <= e:
                pw.append(pw[-1] * x % p)
            if e:
                t = t * pw[e] % p
        total += t
    return total % p


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
    Coefficients are exact integers; the evaluator reduces them mod p."""
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


def singular_points(spec, p):
    """All F_p-rational singular points of a hypersurface, as normalized
    projective representatives (first nonzero coordinate scaled to 1).

    Refuses bad primes: reductions there are not the varieties this catalog
    describes.  Only single-equation specs in straight projective space are
    supported; singular loci of the weighted complete intersections are
    tracked by the resolution bookkeeping instead.
    """
    if p in spec.bad_primes:
        raise RefusalError(f"{spec.id}: {p} is a bad prime")
    if len(spec.equations) != 1:
        raise ValidationError(f"{spec.id}: singular_points needs a hypersurface")
    if spec.ambient.kind != "projective":
        raise ValidationError(f"{spec.id}: unsupported ambient for singular scan")
    nv = spec.ambient.nvars
    eq = spec.equations[0]
    parts = [_partial(eq, v) for v in range(nv)]
    if p ** (nv - 1) > 40_000_000 * p:
        raise ValidationError(f"singular scan infeasible at p={p}")
    found = []
    for fixed in _charts(p, nv):
        coords = _grid(p, fixed)
        on = _zeros([eq], coords, p)
        at = [np.broadcast_to(x, on.shape)[on] for x in coords]
        sing = _zeros(parts, at, p)
        found.extend(zip(*(x[sing].tolist() for x in at)))
    return sorted(found)
