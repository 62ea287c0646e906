"""Variety catalog: dataclasses, JSON (de)serialization, evaluation, dense
F_p / F_{p^2} chart evaluation, and singular point search.

A variety is a list of equations over an ambient space; each equation is a
list of integer monomials.  The shipped catalog lives in data/catalog.json
and round-trips through save_catalog byte-exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

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


_MAX_EXT_CELLS = 60_000_000      # largest F_{p^2} chart, p^(2 (nvars-1))


def _eval_mono_list(eq, coords, p):
    """Values mod p of a monomial list on numpy coordinate arrays; the
    empty list is the zero polynomial.  Coordinates are residues < p < 2^31,
    so no product exceeds p^2 < 2^62."""
    total = None
    for mono in eq:
        t = np.full_like(coords[0], mono.coefficient % p)
        for x, e in zip(coords, mono.exponents):
            for _ in range(e):
                t = t * x % p
        total = t if total is None else (total + t) % p
    return np.zeros_like(coords[0]) if total is None else total


def _chart_arrays(p, nvars, lead, sub):
    """Coordinate arrays over F_p for the chart x_lead = 1, x_i = 0 for
    i < lead, with x_{lead+1} fixed to sub when sub is not None."""
    free = nvars - lead - 1
    mesh_dims = free - (1 if sub is not None else 0)
    grids = np.meshgrid(*[np.arange(p, dtype=np.int64)] * mesh_dims,
                        indexing="ij") if mesh_dims else []
    shape = grids[0].shape if grids else ()
    coords, gi = [], 0
    for i in range(nvars):
        if i < lead:
            coords.append(np.zeros(shape, dtype=np.int64))
        elif i == lead:
            coords.append(np.ones(shape, dtype=np.int64))
        elif i == lead + 1 and sub is not None:
            coords.append(np.full(shape, sub, dtype=np.int64))
        else:
            coords.append(grids[gi])
            gi += 1
    return coords


def _eval_mono_list_ext(eq, coords, p, n):
    """Values of a monomial list over F_{p^2} = F_p[s]/(s^2 - n): each
    coordinate and the result are (a, b) pairs of arrays for a + b s.
    Products reach n p^2 < p^3, which the chart bound keeps below 2^63."""
    tr = ti = None
    for mono in eq:
        mr = np.full_like(coords[0][0], mono.coefficient % p)
        mi = np.zeros_like(mr)
        for (xa, xb), e in zip(coords, mono.exponents):
            for _ in range(e):
                mr, mi = (mr * xa + n * mi * xb) % p, (mr * xb + mi * xa) % p
        if tr is None:
            tr, ti = mr, mi
        else:
            tr, ti = (tr + mr) % p, (ti + mi) % p
    if tr is None:
        return np.zeros_like(coords[0][0]), np.zeros_like(coords[0][0])
    return tr, ti


def _chart_arrays_ext(p, nvars, lead):
    """Coordinate (a, b) array pairs over F_{p^2} for the chart x_lead = 1,
    x_i = 0 for i < lead.  Refuses charts beyond _MAX_EXT_CELLS cells."""
    if p ** (2 * (nvars - 1)) > _MAX_EXT_CELLS:
        raise ValidationError(
            f"degree-2 count infeasible for p={p}, {nvars} variables")
    mesh_dims = 2 * (nvars - lead - 1)
    if mesh_dims:
        grids = np.meshgrid(*[np.arange(p, dtype=np.int64)] * mesh_dims,
                            indexing="ij")
        shape = grids[0].shape
    else:
        grids, shape = [], ()
    coords, gi = [], 0
    for i in range(nvars):
        if i < lead:
            coords.append((np.zeros(shape, dtype=np.int64),
                           np.zeros(shape, dtype=np.int64)))
        elif i == lead:
            coords.append((np.ones(shape, dtype=np.int64),
                           np.zeros(shape, dtype=np.int64)))
        else:
            coords.append((grids[gi], grids[gi + 1]))
            gi += 2
    return coords


def singular_points(spec, p, max_cells=40_000_000):
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
    if p ** (nv - 1) > max_cells * p:
        raise ValidationError(f"singular scan infeasible at p={p}")
    found = []
    for lead in range(nv):
        free = nv - lead - 1
        subs = [None] if p ** free <= max_cells else range(p)
        for sub in subs:
            coords = _chart_arrays(p, nv, lead, sub)
            mask = _eval_mono_list(eq, coords, p) == 0
            for part in parts:
                if not mask.any():
                    break
                if part:
                    mask &= _eval_mono_list(part, coords, p) == 0
            idx = np.argwhere(mask)
            for row in idx:
                pt = tuple(int(c[tuple(row)]) if c.shape else int(c)
                           for c in coords)
                found.append(pt)
    return sorted(found)
