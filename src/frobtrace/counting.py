"""Point counting over F_p and F_{p^2}.

Counts are exact integers.  The generic counters enumerate affine charts
with numpy, through the dense F_p and F_{p^2} chart builders and
monomial-list evaluators of the catalog module; the two nodal-quintic models
additionally get an O(p^2) joint-histogram counter that makes p in the
hundreds cheap and is refused for p^2 beyond a stated cell budget.  count()
picks the counter for a variety's ambient space.  Worker parallelism is
controlled by FROBTRACE_THREADS and never changes any count: work is split
into a chunk list that depends only on p, and partial sums are reduced in
chunk order.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, asdict

import numpy as np

from .catalog import (Monomial, _chart_arrays, _chart_arrays_ext,
                      _eval_mono_list, _eval_mono_list_ext)
from .errors import FrobtraceError, RefusalError, ValidationError
from .ffield import PrimeField, is_prime

_MAX_DENSE_CELLS = 4_000_000       # cells evaluated per slab
_MAX_DENSE_TOTAL = 600_000_000     # refuse larger dense enumerations
_MAX_HIST_CELLS = 4_000_000        # p^2 cells per nodal-quintic table (p < 2000)


@dataclass(frozen=True)
class CountRecord:
    variety_id: str
    p: int
    field_degree: int
    twist_id: object
    count: int
    chunk_count: int
    wall_time: float


def _threads():
    raw = os.environ.get("FROBTRACE_THREADS", "1")
    try:
        k = int(raw)
    except ValueError:
        raise ValidationError(f"FROBTRACE_THREADS={raw!r} is not an integer") from None
    if not 1 <= k <= 64:
        raise ValidationError(f"FROBTRACE_THREADS={k} out of range 1..64")
    return k


def _run_chunks(worker, chunks):
    """Run worker over the chunk list and reduce in chunk order."""
    k = _threads()
    if k == 1 or len(chunks) == 1:
        return [worker(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=k) as pool:
        return list(pool.map(worker, chunks))


def _check_equations_mod_p(spec, p):
    for i, eq in enumerate(spec.equations):
        if all(m.coefficient % p == 0 for m in eq):
            raise ValidationError(
                f"{spec.id}: equation {i} vanishes identically mod {p}")


def _require_prime(p):
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")


# ------------------------------------------------------------------ generic

def _chart_chunks(p, nvars):
    """Chunks (lead, sub) covering the charts of P^{nvars-1}; sub fixes the
    first free coordinate when the chart alone is too large."""
    chunks = []
    for lead in range(nvars):
        free = nvars - lead - 1
        if p ** free <= _MAX_DENSE_CELLS or free == 0:
            chunks.append((lead, None))
        else:
            chunks.extend((lead, s) for s in range(p))
    return chunks


def _count_dense(spec, p, chunks):
    def worker(chunk):
        lead, sub = chunk
        coords = _chart_arrays(p, spec.ambient.nvars, lead, sub)
        mask = None
        for eq in spec.equations:
            v = _eval_mono_list(eq, coords, p) == 0
            mask = v if mask is None else (mask & v)
        return int(np.count_nonzero(mask))

    return sum(_run_chunks(worker, chunks))


# ------------------------------------------------- nodal quintic fast path

def _quintic_histogram_count(p, n, chunks_wanted=32):
    """Projective count of the diagonalized nodal quintic via the algebra
    A = F_p[s]/(s^2 - n).

    With w_i = t_i + t_{5-i} s the equation reads
    16 t0^5 + Re(w1^5) + Re(w2^5) = 5 t0 Nm(w1) Nm(w2); for n = 1 this is
    the straight count, for n a non-residue it is the count of the twisted
    form (Frobenius composed with the sign involution).

    The equation is homogeneous of degree 5 under (t0, w) -> (l t0, l w), so
    the affine cone has (p - 1) N1 + Z points, N1 on the slice t0 = 1 and Z
    on t0 = 0 (origin included).  With the joint histogram
    J[r, m] = #{w : Re(w^5) = r, Nm(w) = m} and H[r] = sum_m J[r, m],

        N1 = sum_mu sum_r J[r, mu] Phi_{5 mu}[-16 - r],
        Phi_lam[c] = #{w : Re(w^5) - lam Nm(w) = c},
        Z = sum_c H[c] H[-c].

    Substituting w -> w / b for b in F_p^* gives
    Phi_{lam b^3}[c] = Phi_lam[c b^-5], so only one row Phi_rho per class
    of F_p^* modulo cubes (one or three) and the row of lam = 0 are built.
    Cost O(p^2).

    All arithmetic is exact int64.  Residue products stay below p^3, and
    the largest values are the cone sum Z and the dot product of one mu,
    counts of pairs (w1, w2) and so at most p^4: the kernel is exact for
    p < 2^15.  The p^2-cell tables are refused beyond _MAX_HIST_CELLS
    cells (p < 2000), well inside that; at that bound they take about
    300 MB.
    """
    if p * p > _MAX_HIST_CELLS:
        raise ValidationError(
            f"nodal-quintic histogram at p={p} needs p^2 = {p * p} cells, "
            f"over the budget of {_MAX_HIST_CELLS}")
    u = np.repeat(np.arange(p, dtype=np.int64), p)
    v = np.tile(np.arange(p, dtype=np.int64), p)
    nn = n % p
    w2r = (u * u + nn * v * v) % p
    w2i = (2 * u * v) % p
    w4r = (w2r * w2r + nn * w2i * w2i) % p
    w4i = (2 * w2r * w2i) % p
    re5 = (w4r * u + nn * w4i * v) % p
    nrm = (u * u - nn * v * v) % p
    del u, v, w2r, w2i, w4r, w4i
    joint = np.bincount(re5 * p + nrm, minlength=p * p).reshape(p, p)
    hist = joint.sum(axis=1)
    cone = int(hist @ hist[-np.arange(p) % p])

    # lam = rho b^3 reads row rho of phi at c b^-5
    row = np.full(p, -1, dtype=np.int64)
    shift = np.ones(p, dtype=np.int64)
    cubes = np.arange(1, p, dtype=np.int64) ** 3 % p
    inv5 = np.array([pow(b, -5, p) for b in range(1, p)], dtype=np.int64)
    reps = [0]
    row[0] = 0
    for lam in range(1, p):
        if row[lam] < 0:
            orbit = lam * cubes % p
            row[orbit] = len(reps)
            shift[orbit] = inv5
            reps.append(lam)
    phi = np.stack([np.bincount((re5 - rho * nrm) % p, minlength=p)
                    for rho in reps])
    target = (-16 - np.arange(p)) % p

    n_chunks = min(p, chunks_wanted)
    bounds = [(c * p) // n_chunks for c in range(n_chunks + 1)]
    chunks = [(bounds[c], bounds[c + 1]) for c in range(n_chunks)]

    def worker(rng):
        lo, hi = rng
        sub = 0
        for mu in range(lo, hi):
            lam = 5 * mu % p
            sub += int(joint[:, mu] @ phi[row[lam], target * shift[lam] % p])
        return (p - 1) * sub + (cone if lo == 0 else 0)

    affine = sum(_run_chunks(worker, chunks))
    if (affine - 1) % (p - 1):
        raise FrobtraceError(f"nodal quintic at p={p}: affine count - 1 is "
                             f"{(affine - 1) % (p - 1)} mod p-1, not 0")
    return (affine - 1) // (p - 1), n_chunks


def _is_schoen_model(spec):
    return spec.id in ("schoen_x", "schoen_y")


# -------------------------------------------------------------- F_{p^2}

def _count_dense_ext(spec, p):
    nv = spec.ambient.nvars
    n = PrimeField(p).nonresidue
    total = 0
    for lead in range(nv):
        coords = _chart_arrays_ext(p, nv, lead)
        mask = None
        for eq in spec.equations:
            tr, ti = _eval_mono_list_ext(eq, coords, p, n)
            v = (tr == 0) & (ti == 0)
            mask = v if mask is None else (mask & v)
        total += int(np.count_nonzero(mask))
    return total


# ----------------------------------------------------------------- API

def count_projective(spec, p, degree=1):
    """#X(F_{p^degree}) for a variety in (straight) projective space."""
    _require_prime(p)
    if degree not in (1, 2):
        raise ValidationError("field_degree must be 1 or 2")
    if spec.ambient.kind != "projective":
        raise ValidationError(
            f"{spec.id}: ambient {spec.ambient.kind}; use the matching counter")
    _check_equations_mod_p(spec, p)
    t0 = time.perf_counter()
    if degree == 2:
        if p == 2:
            raise ValidationError("degree-2 counts need an odd prime")
        cnt = _count_dense_ext(spec, p)
        return CountRecord(spec.id, p, 2, None, cnt, spec.ambient.nvars,
                           time.perf_counter() - t0)
    if _is_schoen_model(spec) and p > 2:
        cnt, nchunks = _quintic_histogram_count(p, 1)
        return CountRecord(spec.id, p, 1, None, cnt, nchunks,
                           time.perf_counter() - t0)
    nv = spec.ambient.nvars
    if p ** (nv - 1) > _MAX_DENSE_TOTAL:
        raise ValidationError(f"dense count infeasible at p={p}")
    chunks = _chart_chunks(p, nv)
    cnt = _count_dense(spec, p, chunks)
    return CountRecord(spec.id, p, 1, None, cnt, len(chunks),
                       time.perf_counter() - t0)


def _compose_equation(eq, matrix, nvars):
    """Substitute x_i -> sum_j matrix[i][j] x_j into a monomial list."""
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
                        key = tuple(x + (1 if k == j else 0)
                                    for k, x in enumerate(exps))
                        nxt[key] = nxt.get(key, 0) + c * mij
                terms = nxt
        for exps, c in terms.items():
            out[exps] = out.get(exps, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def check_preserves(spec, phi):
    """Verify symbolically that the involution maps each equation to an
    integer multiple of itself; raises ValidationError otherwise."""
    nv = spec.ambient.nvars
    if len(phi.matrix) != nv:
        raise ValidationError(f"{phi.id}: matrix size != ambient arity")
    for k, eq in enumerate(spec.equations):
        composed = _compose_equation(eq, phi.matrix, nv)
        original = {m.exponents: m.coefficient for m in eq}
        if set(composed) != set(original):
            raise ValidationError(f"{phi.id} does not preserve equation {k} of {spec.id}")
        # proportionality with a single scalar lambda: c' = lam c for all
        lam = None
        for e in original:
            if composed[e] % original[e] != 0:
                raise ValidationError(f"{phi.id} does not preserve equation {k} of {spec.id}")
            r = composed[e] // original[e]
            if lam is None:
                lam = r
            elif lam != r:
                raise ValidationError(f"{phi.id} does not preserve equation {k} of {spec.id}")
    return True


def count_twisted(spec, phi, p):
    """Count fixed points of Frobenius composed with the involution, i.e.
    the F_p-points of the quadratic twist of the variety by phi.

    Only diagonal +-1 involutions are supported: for those, the twisted
    form is obtained by substituting s*t_i (s a fixed square root of a
    non-residue) for the coordinates in the -1 eigenspace, which lands back
    in F_p coefficients exactly when phi preserves the equations.
    """
    _require_prime(p)
    if p == 2:
        raise ValidationError("twisted counts need an odd prime")
    if spec.ambient.kind != "projective":
        raise ValidationError(f"{spec.id}: twisted counts need a projective model")
    check_preserves(spec, phi)
    if not phi.is_diagonal():
        raise RefusalError(
            f"{phi.id}: twisted counting is implemented for diagonal involutions; "
            "use the diagonalized model of the variety")
    diag = phi.diagonal()
    if any(d not in (1, -1) for d in diag):
        raise RefusalError(f"{phi.id}: diagonal entries must be +-1")
    _check_equations_mod_p(spec, p)
    t0 = time.perf_counter()
    n = PrimeField(p).nonresidue
    if spec.id == "schoen_y" and diag == (1, 1, 1, -1, -1):
        cnt, nchunks = _quintic_histogram_count(p, n)
        return CountRecord(spec.id, p, 1, phi.id, cnt, nchunks,
                           time.perf_counter() - t0)
    # generic diagonal twist: substituted equation list
    twisted_eqs = []
    for eq in spec.equations:
        new = []
        for mono in eq:
            odd = sum(e for e, d in zip(mono.exponents, diag) if d == -1)
            if odd % 2 == 1:
                raise ValidationError(
                    f"{spec.id}: equation not invariant under {phi.id}")
            new.append(Monomial(mono.coefficient * n ** (odd // 2), mono.exponents))
        twisted_eqs.append(tuple(new))
    twisted = type(spec)(spec.id, spec.ambient, tuple(twisted_eqs),
                         spec.dimension, spec.bad_primes, spec.provenance,
                         spec.known)
    nv = spec.ambient.nvars
    if p ** (nv - 1) > _MAX_DENSE_TOTAL:
        raise ValidationError(f"dense twisted count infeasible at p={p}")
    chunks = _chart_chunks(p, nv)
    cnt = _count_dense(twisted, p, chunks)
    return CountRecord(spec.id, p, 1, phi.id, cnt, len(chunks),
                       time.perf_counter() - t0)


def count_weighted(spec, p):
    """Point count in weighted projective space by orbit counting: each
    nonzero cone point is weighted by #Stab = gcd(p-1, gcd of the weights
    of its nonzero coordinates), and the weighted total is divided by p-1.
    """
    _require_prime(p)
    if spec.ambient.kind != "weighted_projective":
        raise ValidationError(f"{spec.id}: not a weighted-projective variety")
    _check_equations_mod_p(spec, p)
    t0 = time.perf_counter()
    weights = spec.ambient.weights
    nv = len(weights)
    if p ** nv > _MAX_DENSE_TOTAL:
        raise ValidationError(f"weighted count infeasible at p={p}")
    # slab over the first coordinate; chunk list = slab values
    chunks = list(range(p))

    def worker(x0):
        mesh = np.meshgrid(*[np.arange(p, dtype=np.int64)] * (nv - 1),
                           indexing="ij")
        coords = [np.full(mesh[0].shape, x0, dtype=np.int64)] + list(mesh)
        mask = np.ones(mesh[0].shape, dtype=bool)
        for eq in spec.equations:
            mask &= _eval_mono_list(eq, coords, p) == 0
        gw = np.zeros(mesh[0].shape, dtype=np.int64)
        for c, w in zip(coords, weights):
            gw = np.gcd(gw, np.where(c != 0, w, 0))
        nonzero = gw != 0
        stab = np.gcd(gw, p - 1)
        return int(stab[mask & nonzero].sum())

    total = sum(_run_chunks(worker, chunks))
    if total % (p - 1):
        raise FrobtraceError(f"{spec.id} at p={p}: stabilizer-weighted total is "
                             f"{total % (p - 1)} mod p-1, not 0")
    return CountRecord(spec.id, p, 1, None, total // (p - 1), len(chunks),
                       time.perf_counter() - t0)


def quotient_weighted_correction(p):
    """Difference between the weighted-space count of the nodal-quintic
    quotient and the Burnside orbit count (N + N_twisted)/2.

    The involution fixes a conic worth of cone directions (Y0 = Y1 = Y2 = 0,
    Y3 Y4 = Y5^2); each of its p+1 points corresponds to two orbits merged
    into one weighted point.
    """
    return p + 1


def count_torus(a, t, p):
    """Points with all coordinates nonzero on the cleared-denominator
    equation of (X1+...+X5)(a1/X1+...+a5/X5) = t, normalized X5 = 1."""
    _require_prime(p)
    if len(a) != 5:
        raise ValidationError("parameter vector a must have 5 entries")
    t0 = time.perf_counter()
    units = np.arange(1, p, dtype=np.int64)
    mesh = np.meshgrid(units, units, units, units, indexing="ij")
    xs = list(mesh) + [np.ones(mesh[0].shape, dtype=np.int64)]
    s1 = (xs[0] + xs[1] + xs[2] + xs[3] + 1) % p
    prod = np.ones(mesh[0].shape, dtype=np.int64)
    for x in xs:
        prod = prod * x % p
    s2 = np.zeros(mesh[0].shape, dtype=np.int64)
    for i in range(5):
        pi = np.full(mesh[0].shape, a[i] % p, dtype=np.int64)
        for j in range(5):
            if j != i:
                pi = pi * xs[j] % p
        s2 = (s2 + pi) % p
    ok = (s1 * s2 - (t % p) * prod) % p == 0
    cnt = int(np.count_nonzero(ok))
    vid = "hulek_verrill[a=%s;t=%d]" % (",".join(str(x) for x in a), t)
    return CountRecord(vid, p, 1, None, cnt, 1, time.perf_counter() - t0)


def count_double_cover(spec, p):
    """Points of w^2 = f(x) over P^3 with f the product of the stored
    linear forms: sum over P^3 of 1 + chi(f(x)), chi the quadratic
    character with chi(0) = 0."""
    _require_prime(p)
    if spec.ambient.kind != "double_cover_p3":
        raise ValidationError(f"{spec.id}: not a double cover of P^3")
    if p == 2:
        raise ValidationError("double cover counts need an odd prime")
    t0 = time.perf_counter()
    chi = -np.ones(p, dtype=np.int64)
    chi[0] = 0
    sq = np.arange(p, dtype=np.int64)
    chi[(sq * sq) % p] = 1
    chi[0] = 0
    chunks = _chart_chunks(p, 4)

    def worker(chunk):
        lead, sub = chunk
        coords = _chart_arrays(p, 4, lead, sub)
        f = np.ones_like(coords[0])
        for eq in spec.equations:
            f = f * _eval_mono_list(eq, coords, p) % p
        return int(f.size + chi[f].sum())

    cnt = sum(_run_chunks(worker, chunks))
    return CountRecord(spec.id, p, 1, None, cnt, len(chunks),
                       time.perf_counter() - t0)


def count(spec, p, degree=1):
    """#X(F_{p^degree}) with the counter for the ambient space of spec.

    Torus varieties are counted at the (a, t) stored under spec.known.  Only
    projective varieties are counted over F_{p^2}.
    """
    kind = spec.ambient.kind
    if kind == "projective":
        return count_projective(spec, p, degree)
    if degree != 1:
        raise ValidationError(
            f"{spec.id}: ambient {kind} is counted over F_p only")
    if kind == "weighted_projective":
        return count_weighted(spec, p)
    if kind == "torus":
        known = spec.known or {}
        return count_torus(known["a"], known["t"], p)
    return count_double_cover(spec, p)


# ------------------------------------------------------------------ JSONL

def write_records(records, fh):
    """Stream CountRecords as JSON lines to an open text file."""
    for rec in records:
        fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")


def read_records(fh):
    out = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        out.append(CountRecord(d["variety_id"], d["p"], d["field_degree"],
                               d["twist_id"], d["count"], d["chunk_count"],
                               d["wall_time"]))
    return out
