"""Point counting over F_p and F_{p^2}.

Counts are exact integers.  Varieties whose catalog entry declares a
two-group count model (the nodal quintic in Schoen's fibre-product form,
directly or through a linear map, its involution quotient, and
Consani-Scholten's quintic P(x, y) = P(z, w)) are counted at odd primes by
one kernel over per-group histograms.  One pass per (model, p), kept in a
bounded per-process lru_cache, gives 3x3 matrices over the
quadratic-character blocks of b, and the straight, twisted, chi-weighted
and uncoupled counts are weightings of them, so schoen_x's count,
schoen_y's twist and the quotient's count reuse schoen_y's pass.  Where
the declared groups are weighted-homogeneous with even weights, the pass
runs along Weil's scaling orbits, where every row of a group is a scaled
copy of one of a few base histograms: uncoupled, every histogram folds
from O(p) values (_fold); coupled, when the m have no constant (schoen_y,
so schoen_x, and the quotient), from p = _ORBIT_FROM = 151 on, the key
histogram and the rows of Phi are cyclic convolutions of O(p) rows
against them on discrete logs, made by numpy's float64 FFT in O(n^2 p log
p), n <= D - d, with no p^2-cell array, and checked to be exact
(_orbit_convolution).  Coupled models below 151, where the convolution's
fixed cost, about 1 ms, exceeds the grid's (medians of 25 passes in 6
alternating processes, 2 vCPUs), and every other model
(consani_scholten) evaluate their values on the p^2 cells of the grid,
bincounted one chi block's rows at a time.  An uncoupled model reads F
off r1's histogram; a coupled one's keys and Phi rows are gathers from
O(p) tables of discrete logs and adds, with no product mod p.  Everything
else, and every kernel's oracle, runs on the broadcast grids of the
catalog module: the projective, twisted and double-cover counts share one
dense loop over the charts of _charts, cut into slabs that bound memory,
the double cover factors chi over its forms' supports, each form on the
grid of the coordinates it reads (O(p^2) a chart for the double octic)
and once per chart when it does not read the slab coordinate, and the
weighted count runs one slab per value of the first coordinate.
count() picks the counter for a variety's ambient space.

A chunk of one equation eliminates a coordinate where the equation's
exponents allow it.  Over F_p (_elimination) that is the free coordinate
x_v of least degree d on the chart, when p^d is at most p^(nvars-2), the
largest chart's cells over p, and at most _MAX_SLAB_CELLS.  The cached
tables of root counts of monic polynomials of degree k <= d (_root_table,
p^k entries) are built first; the coefficients c_k of x_v^k are evaluated
on the grid of the other free coordinates, c_d (d > 0) only on those it
reads, and each cell adds the roots of sum_k c_k x^k, read from a table
at the c_k scaled in place by the top one's inverse (_count_roots).
Table indices stay below p^d and products of residues below p^2, held by
ifs that python -O keeps.  The rule reads no variety id and is made per
chart against one bound per count, so slabs and charts of one degree
share a table; chunk lists, chunk counts and cell budgets are those of
the full grid, which counts every other chunk and is the elimination's
oracle in the tests.  The torus
count evaluates no polynomial: it meets two histograms of pairs (X1, X2)
and (X3, X4) by sum and sum of a_i/X_i in the middle (_torus_pairs), p^3
int32 products in O(p^2) memory.

Over F_{p^2}, q = p^2, a chart on which the equation reads alpha z^D +
beta z^d + gamma or alpha z^D + gamma in a free coordinate z, D > d > 0
and alpha a constant (_scaling), evaluates beta and gamma as Weil
restrictions on the q^k cells of its k other free coordinates, and each
cell reads its roots in z from a table of one row per class of
ffield.scaling (_scaled_table).  Every other F_{p^2} chart with a free
coordinate is counted on half its grid by _folded, as conjugation maps
its zeros to zeros.  Chunk lists, chunk counts and the _MAX_EXT_CELLS
refusal are those of the full chart, which with the fold is the scaled
count's oracle in the tests; lefschetz.nodal_curve keeps its own
full-grid scan.

Every counter ends in the one dispatch _counted, which runs the two-group
kernel where the declared model counts at p and the dense path otherwise,
and times the run into the CountRecord; those of catalog varieties open
with the same checks, _opening.  Cell budgets refuse through
catalog._require_cells, before anything is allocated.

Every count runs in the calling thread.  The dense counters and the
two-group kernel pass their chunk lists, which depend only on p, once
through _run_chunks and sum the parts in chunk order; the kernel's list
is one chunk, the weighting of its cached matrices into a total, so a
cache hit runs the same divisibility check as a full pass.
"""
from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass, asdict
from functools import lru_cache
from math import gcd, prod

import numpy as np
from numpy.fft import irfft, rfft

from .catalog import (_MAX_SLAB_CELLS, TORUS_FAMILY, Monomial, _charts,
                      _compose_equation, _eval_mono_list, _grid, _ratio,
                      _require_cells, _restrict, _zeros)
from .errors import FrobtraceError, RefusalError, ValidationError
from .ffield import (_field_degree, chi_table, inverses, log_tables,
                     nonresidue, reduce_mod, require_prime, scaling)

_MAX_DENSE_TOTAL = 600_000_000     # refuse larger dense enumerations
_MAX_HIST_CELLS = 4_000_000        # p^2 cells per two-group table (p < 2000)
_MAX_TORUS_CELLS = 4_000_000       # (p-1)^3 cells of the torus count (p < 160)
_PASS_CACHE = 512                  # kernel passes kept: 302 odd primes p < 2000
_ORBIT_FROM = 151                  # least prime of the orbit convolution
_MAX_ORBIT_BINS = 4_000_000        # its rows' bins: 3 n (G + n + 6) Q
_FFT_C = 32                        # its error: _FFT_C eps log2 Q |a|_2 |b|_2
_FFT_SLACK = 0.25                  # an error below it rounds to the integer


@dataclass(frozen=True)
class CountRecord:
    variety_id: str
    p: int
    field_degree: int
    twist_id: object
    count: int
    chunk_count: int
    wall_time: float


def _run_chunks(worker, chunks):
    """worker over the chunk list in chunk order: the one loop of every
    counter, and the seam where the invariant tests lose a cell."""
    return [worker(c) for c in chunks]


def _opening(spec, p, kind, odd=None, phi=None):
    """The opening checks of a count of spec at p, in order: p is prime,
    and odd where odd names the count that needs it; spec's ambient is
    kind; a double cover's branch locus is an even number of linear forms,
    so that chi of their product is defined on P^3; a twisted count's phi
    preserves the equations and is diagonal +-1 (the diagonal is
    returned); no equation vanishes mod p."""
    require_prime(p)
    if odd and p == 2:
        raise ValidationError(f"{odd} need an odd prime")
    if spec.ambient.kind != kind:
        raise ValidationError(f"{spec.id}: ambient {spec.ambient.kind}, not {kind}")
    if kind == "double_cover_p3":
        for i, eq in enumerate(spec.equations):
            if any(m.degree() != 1 for m in eq):
                raise ValidationError(f"{spec.id}: branch form {i} is not "
                                      "homogeneous of degree 1")
        if len(spec.equations) % 2:
            raise ValidationError(
                f"{spec.id}: {len(spec.equations)} branch forms; an odd "
                "number has no quadratic character on P^3")
    diag = None
    if phi is not None:
        check_preserves(spec, phi)
        if not phi.is_diagonal():
            raise RefusalError(
                f"{phi.id}: twisted counting is implemented for diagonal "
                "involutions; use the diagonalized model of the variety")
        diag = phi.diagonal()
        if any(d not in (1, -1) for d in diag):
            raise RefusalError(f"{phi.id}: diagonal entries must be +-1")
    for i, eq in enumerate(spec.equations):
        if all(m.coefficient % p == 0 for m in eq):
            raise ValidationError(
                f"{spec.id}: equation {i} vanishes identically mod {p}")
    return diag


def _counted(vid, p, dense, model=None, degree=1, twist_id=None,
             flips=(False, False)):
    """The one dispatch: the timed CountRecord of a count at p, by the
    two-group kernel where model counts there (p odd and prime to
    model.unit), twisted by flips, else by dense(); each gives (count,
    chunk count)."""
    t0 = time.perf_counter()
    if model is not None and p != 2 and model.unit % p:
        cnt, chunks = _two_group_count(model, p, vid, flips)
    else:
        cnt, chunks = dense()
    return CountRecord(vid, p, degree, twist_id, cnt, chunks,
                       time.perf_counter() - t0)


# ------------------------------------------------------------------ generic

def _count_dense(spec, p, eqs, degree=1, on_chart=None):
    """(count, chunk count) of the common zeros over F_{p^degree} of eqs,
    monomial lists on P^{nvars-1}, or over F_p of on_chart(coords, fixed)
    summed over the chunks of _charts, each with its fixed list.  A chunk
    of one equation is counted by _count_roots where _elimination selects
    it over F_p and by _scaled_roots where _scaling selects it over
    F_{p^2}; any other F_{p^2} chart with a free coordinate by _folded on
    half the grid of the Weil restrictions, and every other chunk, (0 :
    ... : 0 : 1) over F_{p^2} too, on the full F_p grid."""
    nv = spec.ambient.nvars
    if degree == 1:          # _charts refuses F_{p^2} charts by its budget
        _require_cells("dense count", p, lambda q: q ** (nv - 1), _MAX_DENSE_TOTAL)
    chunks = _charts(p, nv, degree)
    one = len(eqs) == 1 and tuple(eqs[0])
    on_chart = on_chart or (
        lambda c, _: int(np.count_nonzero(_zeros(eqs, c, p))))

    def worker(fixed):
        if degree == 2 and None not in fixed:   # (0 : ... : 0 : 1), in F_p
            fixed = fixed[::2]
        elif degree == 2:
            plan = one and _scaling(one, fixed.index(1) // 2, nv, p)
            if plan:
                return _scaled_roots(plan, fixed, p)
            n = nonresidue(p)
            return _folded([f for eq in eqs for f in _restrict(eq, n)], fixed, p)
        plan = one and _elimination(
            one, fixed.index(1), nv,
            tuple(i for i, x in enumerate(fixed) if x is None), p)
        if not plan:
            return on_chart(_grid(p, fixed), fixed)
        v, parts = plan
        for k in range(1, len(parts)):          # the tables before the arrays
            _root_table(k, p)
        coords = _grid(p, fixed[:v] + [0] + fixed[v + 1:])
        # c_d, d > 0, on the grid of the coordinates it reads
        top = [x if len(parts) == 1 or any(m.exponents[i] for m in parts[-1])
               else x[(slice(1),) * x.ndim] for i, x in enumerate(coords)]
        return _count_roots([_eval_mono_list(q, coords, p) for q in parts[:-1]]
                            + [_eval_mono_list(parts[-1], top, p)], p)

    return sum(_run_chunks(worker, chunks)), len(chunks)


def _folded(eqs, fixed, p):
    """The common zeros of the restrictions eqs on an F_{p^2} chart fixed
    of _charts with a free coordinate, counted on half its grid.

    The equations have integer coefficients, so conjugation s -> -s, the
    Frobenius of F_{p^2}/F_p, negates every b of x = a + b s: it fixes R
    and negates I (_restrict), so it maps common zeros to common zeros, and
    it fixes the chart (a_lead = 1, b_lead = 0).  With b1 the b of the
    first free coordinate and h = (p - 1)/2, b1 -> -b1 pairs the zeros with
    b1 in 1..h with those in h+1..p-1.  The grid keeps b1 in 0..h, the
    chart's second free axis: each zero there counts twice, less those at
    b1 = 0 once.  Cutting the first b, not the last, halves the sub-grids
    on which the evaluator runs the coefficients of the later coordinates
    too.  p is odd, as _opening requires of every F_{p^2} count."""
    coords = _grid(p, fixed)
    b1 = fixed.index(None) + 1
    coords[b1] = coords[b1][:, :(p + 1) // 2]
    on = _zeros(eqs, coords, p)
    return 2 * int(np.count_nonzero(on)) - int(np.count_nonzero(on[:, 0]))


@lru_cache(maxsize=256)
def _scaling(eq, lead, nv, p):
    """How the F_{p^2} chart x_lead = 1, x_i = 0 for i < lead, of the one
    equation eq on P^{nv-1} is counted by _scaled_roots: the first free
    coordinate z = x_v in which the live monomials (coefficient prime to p,
    no x_i with i < lead) have the exponents {D, d, 0} or {D, 0}, D > d > 0,
    z^D's coefficient is a constant alpha prime to p, and the table of
    _scaled_table, 3 (n + 1) (q - 1) entries for n = gcd(D - d, q - 1) (0
    without d), is no larger than _MAX_SLAB_CELLS.  (v, D, d, alpha, beta,
    gamma) is returned, beta and gamma the Weil restrictions of the
    coefficients of z^d (empty without d) and z^0.  The rule reads
    exponents alone; otherwise None: _folded."""
    q1 = p * p - 1
    live = [m for m in eq if m.coefficient % p and not any(m.exponents[:lead])]
    for v in range(lead + 1, nv):
        degs = sorted({m.exponents[v] for m in live})
        if len(degs) not in (2, 3) or degs[0]:
            continue
        d, D = degs[-2:]
        parts = _by_degree(live, v, D)
        alpha = sum(m.coefficient for m in parts[D]) % p
        n = gcd(D - d, q1) if d else 0
        if alpha and 3 * (n + 1) * q1 <= _MAX_SLAB_CELLS and \
                not any(any(m.exponents[lead + 1:]) for m in parts[D]):
            s = nonresidue(p)
            return (v, D, d, alpha, _restrict(parts[d] if d else (), s),
                    _restrict(parts[0], s))
    return None


def _scaled_roots(plan, fixed, p):
    """The zeros of alpha z^D + beta z^d + gamma (_scaling's plan) on the
    F_{p^2} chart fixed: beta and gamma are evaluated on the grid of the
    other free coordinates, q^k cells with z = 0, as elements a + b p, and
    each cell adds its roots in z, read from _scaled_table by two gathers
    (products below p^2)."""
    v, D, d, alpha, beta, gamma = plan
    coords = _grid(p, fixed[:2 * v] + [0, 0] + fixed[2 * v + 2:])
    (br, bi), (cr, ci) = ([_eval_mono_list(f, coords, p).ravel() for f in pair]
                          for pair in (beta, gamma))
    table, shift = _scaled_table(D, d, alpha, p)
    key = log_tables(p, 2)[1][cr + ci * p]
    key += shift[br + bi * p]
    return int(table[key].sum())


@lru_cache(maxsize=8)
def _scaled_table(D, d, alpha, p):
    """(T, S) for the roots in F_q, q = p^2, of alpha z^D + beta z^d +
    gamma (d = 0: alpha z^D + gamma), alpha in F_p^*: T[L[gamma] + S[beta]]
    at indices beta and gamma, S = ffield.scaling and L of log_tables(p,
    2).  Row r of T, one bincount, counts the w with w^D + g^(r-1) w^d + c
    = 0 (w^D + c = 0 in row 0, the only row without d) at E3 = (E, E, 0).
    Every gather index of T is below its size, checked on the tables by an
    if that python -O keeps."""
    shift = scaling(D, d, alpha, p, 2)[:p * p if d else 1]  # d = 0: beta = 0
    exp, log = log_tables(p, 2)
    q1 = exp.size
    n = gcd(D - d, q1) if d else 0
    i, e3 = np.arange(q1), np.concatenate([exp, exp, 0 * exp])
    wd, rows = exp[D * i % q1], []                 # w^D at w = g^i
    for r in range(n + 1):
        rw = exp[(r - 1 + d * i) % q1] if r else 0   # rho w^d
        # c = -(w^D + rho w^d) as an index, and w = 0 at c = 0
        at = np.bincount(-(wd % p + rw % p) % p + -(wd // p + rw // p) % p * p,
                         minlength=p * p)
        at[0] += 1
        rows.append(at[e3])
    table = np.concatenate(rows)
    if log.max() + shift.max() >= table.size:
        raise FrobtraceError(f"scaled root table at p={p} leaves its bounds")
    return table, shift


@lru_cache(maxsize=256)
def _elimination(eq, lead, nv, free, p):
    """How a chunk of the count of the one equation eq at p is counted: on
    the chart x_lead = 1, x_i = 0 for i < lead, of P^{nv-1}, whose free
    coordinates in the chunk are free (a slab fixes the chart's first),
    the coordinate v of free of least degree d in eq mod p there is
    eliminated, and (v, parts) is returned, parts[k] the coefficient c_k
    of x_v^k as a monomial tuple without x_v.  The rule reads degrees
    alone, per chart, so the slabs of a cut chart share one plan: it holds
    when p^d is at most p^(nv-2), the largest chart's cells over p, and at
    most _MAX_SLAB_CELLS, one bound per count, so that the charts of one
    degree share a table (_root_table caches per (k, p)).  Otherwise None:
    the full grid."""
    if not free:
        return None
    live = [m for m in eq if m.coefficient % p and not any(m.exponents[:lead])]
    d, v = min((max((m.exponents[i] for m in live), default=0), i)
               for i in free)
    if d > nv - 2 or p ** d > _MAX_SLAB_CELLS:
        return None
    return v, _by_degree(live, v, d)


def _by_degree(eq, v, d):
    """parts[k]: the monomials of eq of degree k <= d in x_v, without x_v."""
    parts = [[] for _ in range(d + 1)]
    for m in eq:
        e = m.exponents
        parts[e[v]].append(Monomial(m.coefficient, e[:v] + (0,) + e[v + 1:]))
    return tuple(map(tuple, parts))


def _count_roots(c, p):
    """The roots in x of sum_k c_k x^k summed over the cells of the arrays
    c, fresh residue arrays that it consumes (the coefficients of x_v^k on
    a chunk's grid with x_v fixed, the top one, c_d, on a grid that
    broadcasts to the others').  A cell whose top nonzero coefficient is
    c_k, k >= 1, reads _root_table(k, p) at the monic polynomial c_k^-1
    sum_j c_j x^j; a cell with c_k = 0 for every k >= 1 adds p where c_0 =
    0 and nothing otherwise.  Degree k first takes
    the cells with c_k = 0, the only ones that go on to degree k - 1, then
    writes c_0 c_k^-1 and each c_j c_k^-1 p^j into c_0..c_(k-1) in place,
    c_k^-1 read as 0 where c_k = 0: those cells read index 0, x^k, whose
    one root is taken back.  Each product c_j c_k^-1 is of two residues,
    below p^2 < 2^62 (the evaluator refuses p >= 2^31), and each table
    index is below p^k, which _root_table refuses beyond _MAX_SLAB_CELLS:
    _elimination picks no degree past it."""
    total = 0
    for k in range(len(c) - 1, 0, -1):
        table = _root_table(k, p)
        zero = np.broadcast_to(c[k] == 0, c[0].shape)
        rest = [x[zero] for x in c[:k]]
        inv = inverses(p)[c[k]]
        idx = reduce_mod(np.multiply(c[0], inv, out=c[0]), p)
        for j in range(1, k):
            term = reduce_mod(np.multiply(c[j], inv, out=c[j]), p)
            term *= p ** j
            idx += term
        total += int(table[idx].sum()) - int(np.count_nonzero(zero))
        c = rest
    return total + p * int(np.count_nonzero(c[0] == 0))


@lru_cache(maxsize=8)
def _root_table(k, p):
    """T_k: at a_0 + a_1 p + ... + a_{k-1} p^(k-1), the number of roots in
    F_p of x^k + a_{k-1} x^(k-1) + ... + a_0, as p^k uint8 entries (at most
    k roots).  One bincount over x and a_1..a_{k-1}, each on an axis of its
    own of _grid(p, [None] * k): each such tuple is a root of exactly the
    a_0 = -(x^k + ... + a_1 x), evaluated by _eval_mono_list, to which the
    index of a_1..a_{k-1} is added in place, below p^k.  Tables
    beyond _MAX_SLAB_CELLS entries are refused, and the cache holds at
    most 8 of them, 32 MB at that bound."""
    if p ** k > _MAX_SLAB_CELLS:
        raise ValidationError(f"root table of degree {k} at p={p}: "
                              f"{p ** k} entries, over {_MAX_SLAB_CELLS}")
    # x on axis 0 and a_j on axis k - j, so a_1 p + a_2 p^2 + ... is a range
    a0 = _eval_mono_list([Monomial(-1, (j,) + tuple(int(i == k - j)
                                                    for i in range(1, k)))
                          for j in range(1, k + 1)], _grid(p, [None] * k), p)
    a0 += np.arange(0, p ** k, p, dtype=np.int64).reshape([1] + [p] * (k - 1))
    return np.bincount(a0.ravel(), minlength=p ** k).astype(np.uint8)


# ------------------------------------------------------ two-group kernel

def _halved(g, chi):
    """(r, m, True) for a group of a model without chi whose r and m are
    even in b, with b^2 -> b; else (r, m, False)."""
    if chi is not None or any(x.exponents[1] % 2 for x in g.r + g.m):
        return g.r, g.m, False
    return (*(tuple(Monomial(x.coefficient, (a, b // 2, s))
                    for x in poly for a, b, s in [x.exponents])
              for poly in (g.r, g.m)), True)


def _flips(model, diag):
    """For each group, whether the twist by the diagonal diag flips its b;
    None where the block weights cannot express the twist (no declared
    model, a mapped one, a flipped s or a, or a flipped b in a group not
    even in b): the dense path counts those."""
    if model is None or model.onto is not None or diag[model.shared] != 1:
        return None
    flips = []
    for g in model.groups:
        a, b = (diag[i] == -1 for i in g.vars)
        if a or (b and not _halved(g, model.chi)[2]):
            return None
        flips.append(b)
    return tuple(flips)


def _fold(v, D, blocks, p, col=slice(None), row=slice(None)):
    """The histogram over F_p, per chi block, of a weighted-homogeneous f of
    degree D on the scaling orbits, from v = (f(0, b'), f(1, b')) on each
    row b' of _block_pass: column 0, (0, b'), holds f(0, b') and the p - 1
    cells (t, t^w b'), t != 0, hold t^D f(1, b').  A row with f(1, b') = x
    != 0 reaches each value x g^u, u = L[x] mod gcd(D, p - 1), gcd(D, p -
    1) times, and one with x = 0 reaches 0 p - 1 times: O(p).  col and row,
    masks of the rows, keep the column-0 cells and the orbits of some rows
    only."""
    exp, log = log_tables(p)
    q, n = p - 1, gcd(D, p - 1)
    out = np.bincount(blocks[col] * p + v[col, 0], minlength=3 * p)
    out = out.reshape(3, p)
    x, b = v[row, 1], blocks[row]
    on = x != 0
    out[:, 0] += q * np.bincount(b[~on], minlength=3)
    rows = np.bincount(b[on] * n + log[x[on]] % n, minlength=3 * n)
    out[:, exp] += n * rows.reshape(3, n)[:, np.arange(q) % n]
    return out


def _orbit_convolution(r1, m1, r2, m2, c, k, hr2, blocks, p):
    """(F, Phi), each of shape (3, p + n (Q + 1)), with N1's block matrix F
    Phi^T, for a coupled pass on the scaling orbits (_block_pass): r1, m1,
    r2 and m2 are (v, D), v = (f(0, b'), f(1, b')) on each row b' of f's
    part of degree D, with D > d for r2 and m2 and no constant in the m;
    c is the constant of r1 + r2 at s = 1 and hr2 r2's histogram, Phi_0.

    Write D and d for r2's and m2's degrees, e = D - d and n = gcd(e, p -
    1).  Row 0 of F is the histogram of c' = -r1 - c on F_p over the w1
    with lam = k m1(w1) = 0.  Any other lam is rho_j T^e, rho_j = g^j, j <
    n, and Phi_lam[c'] = Phi_j[c' T^-D] (ffield.scaling).  Phi_j is
    constant on the cosets of M = {z^D : z^e = 1}, so w1 is keyed on j and
    the coset of c' T^-D, a discrete log mod Q = (p - 1) gcd(D, n) / n, or
    on c' = 0; Phi_j is folded onto Z/Q, |M| times Phi_j at each log.

    Along a row of group 2 (x = r2(1, b'), y = m2(1, b')), t = g^s gives
    t^D x + rho_j t^d y = sigma t'^d (g^a t'^e + 1) with a = L[x / rho_j y]
    mod n and t' = g^m t, e m = L[x / rho_j y] - a: base B_a shifted by L
    sigma.  Along a row of group 1 (x = r1(1, b'), y = m1(1, b'), degrees
    D1 and delta), in steps s = n i + s0, j is fixed and T^-D moves by beta
    = g^(-D delta / (e / n)) per step, so c' T^-D = B beta^i (u gamma^i +
    1), gamma = g^(n D1), u = x g^(D1 s0) / c: base H_a, a = L[u] mod
    gcd(n D1, p - 1), shifted, exact on Z/Q as beta^((p - 1) / n) lies in
    M.  A row with x = 0 or y = 0 is a coset fold (t^D x, rho_j t^d y;
    beta^i, x t^D1 beta^i in group 1) shifted, and one with x = y = 0 (x =
    0 and c = 0 in group 1) p - 1 zeros.  The column a = 0 is binned cell
    by cell, and the rows of group 1 with y = 0 and the column-0 cells with
    lam = 0 fold into row 0 (_fold).  On Z/Q each base is periodic in s
    with period (p - 1) / n, so it is built on that many steps.

    So every histogram is a sum of cyclic convolutions on Z/Q, the rows
    counted by their shift against G + n + 6 bases, G = gcd(n D1, p - 1),
    made by one batch of numpy's float64 FFT over the rows that have an
    entry, in O(n^2 p log p): no p^2-cell array.  The 3 n (G + n + 6) Q
    bins of the rows, 72k for schoen_y at 1999, are refused beyond
    _MAX_ORBIT_BINS before any is allocated; only degrees far beyond the
    catalog's reach it.  Each entry counts cells, at most p^2 < 2^22, so
    squared norms stay below p^4 < 2^44.  FrobtraceError is raised before
    any transform when a summed row's a priori rounding bound, _FFT_C eps
    log2 Q sum_r |conv_r|_2 |table_r|_2 with eps = 2^-53, reaches
    _FFT_SLACK = 1/4 (it reads 4.5e-10 at 1999; radix 2 gives about 13
    eps log2 N |a|_2 |b|_2, Percival, Math. Comp. 72, 2003, and 32 covers
    pocketfft's other radices), and after them unless every value lies
    within 1/4 of an integer and each block's histograms total its cells,
    by ifs that python -O keeps."""
    exp, log = log_tables(p)
    q = p - 1
    (v1, D1), (u1, delta), (v2, D), (u2, d) = r1, m1, r2, m2
    e = D - d
    n = gcd(e, q)
    qn, Q = q // n, q // n * gcd(D, n)
    inv = pow(e // n, -1, qn)
    G = gcd(n * D1, q) if D1 else 1
    nb = G + n + 6          # F: H_a, two steps, zeros; Phi: B_a, two steps, zeros
    size = 3 * n * nb * Q
    if size > _MAX_ORBIT_BINS:
        raise RefusalError(f"orbit convolution at p={p}: {size} bins for D "
                           f"- d = {e}, over {_MAX_ORBIT_BINS}")
    beta = -D * inv * delta % Q
    i, j = np.arange(qn), np.arange(n)[:, None]

    # the bases: F's H_a, Phi's B_a (n times: s runs over q steps), steps
    off = np.concatenate([np.arange(G), np.arange(n)])[:, None]
    mult, step = (np.repeat(x, (G, n))[:, None]
                  for x in ((n * D1, e), (beta, d)))
    u = (exp[(off + mult * i) % q] + 1) % p
    vals = np.concatenate([(step * i + log[u]) % Q,
                           np.outer((beta, n * D1 + beta, D, d), i) % Q])
    slot = np.concatenate([off[:G, 0], G + 3 + off[G:, 0],
                           [G, G + 1, nb - 3, nb - 2]])
    hit = np.concatenate([u != 0, np.ones((4, qn), dtype=bool)])
    table = np.bincount((slot[:, None] * Q + vals)[hit],
                        minlength=nb * Q).reshape(nb, Q)
    table[G + 3:] *= n
    zeros = np.zeros(nb, dtype=np.int64)
    zeros[:G] = (u[:G] == 0).sum(axis=1)
    zeros[G + 3:-3] = n * (u[G:] == 0).sum(axis=1)
    zeros[G + 2], zeros[-1] = qn, q

    def row(block, level, base, shift):
        return (((block * n + level) * nb + base) * Q + shift % Q).ravel()

    def cell(side, block, level, value):
        """a column-0 cell of value c' T^-D, by its log, or 0"""
        return size + (((side * 3 + block) * n + level) * (Q + 1) + np.where(
            value == 0, Q, log[value] % Q)).ravel()

    # Phi: the rows of group 2 at each level j, then column a = 0
    (x0, x), (y0, y) = v2.T, u2.T
    lx, ly = log[x], log[y]
    ell = (lx - ly - j) % q
    a = ell % n
    ox, oy = x != 0, y != 0
    m = ox * d * ((ell - a) // n * inv % qn)
    keys = [row(blocks, j, G + 3 + np.where(oy, np.where(ox, a, n + 1),
                                            np.where(ox, n, n + 2)),
                np.where(oy, j + ly - m, lx)),
            cell(1, blocks, j, (x0 + exp[j] * y0) % p)]

    # F: the rows of group 1 with y != 0 in n steps s0 < n, then column 0
    (x0, x), (y0, y) = v1.T, u1.T
    live = y != 0
    x = x[live]
    ox = x != 0
    lam = log[k * y[live] % p] + delta * j
    level = lam % n
    m0 = (lam - level) // n * inv % qn
    if c:
        mu = (log[x] - log[c] + D1 * j) % q
        a = mu % G
        nu = (mu - a) // G * pow(n * D1 // G, -1, q // G) if D1 else 0
        base = np.where(ox, a, G)
        shift = log[-c % p] - D * m0 + ox * (D * inv * delta * nu)
    else:
        base = np.where(ox, G + 1, G + 2)
        shift = log[-x % p] + D1 * j - D * m0
    lam0, c0 = k * y0 % p, (-x0 - c) % p
    at = lam0 != 0
    l0 = log[lam0[at]]
    mm = (l0 - l0 % n) // n * inv % qn
    keys += [row(blocks[live], level, base, shift),
             cell(0, blocks[at], l0 % n, exp[-D * mm % q] * c0[at] % p)]
    row0 = _fold(v1, D1, blocks, p, ~at, ~live)[:, (-np.arange(p) - c) % p]

    counts = np.bincount(np.concatenate(keys),
                         minlength=size + 6 * n * (Q + 1))
    conv = counts[:size].reshape(-1, Q)
    direct = counts[size:].reshape(2, 3, n, Q + 1)
    # only rows with an entry and a base with values are transformed; each
    # sums into its block, level and side
    rows = np.flatnonzero(conv.any(axis=1) & np.tile(table.any(axis=1), 3 * n))
    side = rows // nb * 2 + (rows % nb >= G + 3)
    nc, nt = (np.sqrt(np.einsum("ij,ij->i", x, x)) for x in (conv, table))
    err = np.bincount(side, nc[rows] * nt[rows % nb])
    err *= _FFT_C * 2.0 ** -53 * np.log2(max(Q, 2))
    if err.max(initial=0) >= _FFT_SLACK:
        raise FrobtraceError(f"orbit convolution at p={p}: its rounding "
                             f"bound {err.max()} is not below {_FFT_SLACK}")
    spec = rfft(conv[rows].astype(np.float64))
    spec *= rfft(table)[rows % nb]
    first = np.flatnonzero(np.concatenate([[True], side[1:] != side[:-1]]))
    total = np.zeros((6 * n, Q // 2 + 1), dtype=complex)
    total[side[first]] = np.add.reduceat(spec, first)
    out = irfft(total, Q).reshape(3, n, 2, Q).transpose(2, 0, 1, 3)
    out += direct[..., :Q]
    out[1] *= Q / q                                   # 1 / |M|
    got = np.rint(out)
    at0 = conv.sum(axis=1).reshape(3, n, nb) * zeros
    at0 = direct[..., Q] + np.stack([at0[..., :G + 3].sum(axis=2),
                                     at0[..., G + 3:].sum(axis=2)])
    both = np.concatenate([got, at0[..., None]], axis=3)
    cells = np.bincount(blocks, minlength=3) * p
    if np.abs(out - got).max() >= _FFT_SLACK or \
            np.any(row0.sum(axis=1) + both[0].sum(axis=(1, 2)) != cells) or \
            np.any(got[1].sum(axis=2) * (q // Q) + at0[1] != cells[:, None]):
        raise FrobtraceError(f"orbit convolution at p={p} is not exact")
    both = both.astype(np.int64).reshape(2, 3, -1)
    return (np.concatenate([row0, both[0]], axis=1),
            np.concatenate([hr2, both[1]], axis=1))


@lru_cache(maxsize=_PASS_CACHE)
def _block_pass(groups, k, weights, p):
    """The 3x3 block-pair matrices (NF, Z, A) of one pass over the grids of
    groups ((r1, m1), (r2, m2)), as tuples of ints; see _two_group_count.

    A group's p^2 cells (a, b) lie in p rows b', in chi blocks.  The pass
    runs along the scaling orbits where each value polynomial of the pass
    (r at s = 0 and 1, and m when coupled) is one weighted-homogeneous
    part in (a, b) plus a constant, under weights (1, w) with w even, and
    when coupled p >= _ORBIT_FROM = 151, the m have no constant and r2's
    degree exceeds m2's > 0, mod p: the cells (t, t^w b'), t != 0, of row
    b' hold t^D f(1, b'), and an even w keeps each chi block, so the
    blocks and the counts are those of the grid.  Each polynomial is then
    evaluated at a = 0 and 1 only, every histogram folds in O(p) (_fold),
    and N1 comes from _orbit_convolution in O(n^2 p log p), n <= D - d, or
    from the folds alone when uncoupled: no p^2-cell array.  Every shipped
    orbit model (schoen_y, so schoen_x, its twist and the quotient)
    qualifies from 151 on.  A model with a constant in m has no base
    histograms (lam = k (t^delta y + d1) is no monomial in t) and takes the
    grid, as do odd weights, mixed degrees (consani_scholten) and coupled
    models below 151, where the grid costs less than the convolution's
    fixed ~1 ms: the values are evaluated on the p^2 cells, columns a, and
    each histogram is one bincount per chi block over its slice of rows.
    The layout is read off the model and p alone.

    Value polynomials that agree up to a constant and a sign share their
    values (consani_scholten's r2 is -r1): the values of -f are read at
    neg.  Uncoupled, on either layout, F is r1's histogram shifted by -c1
    - c2.  On the coupled grid, products of residues (below p^2) run on
    O(p) tables only: a block's keys and Phi values are gathers from them,
    with checked indexing, and adds, the keys below the (n + 1) 3q bins
    they fold from and Phi's values below 2p.  The log tables are checked
    to be inverse bijections of F_p^* with the sentinel L[0] = 2q, by an if
    that python -O keeps.  The _PASS_CACHE entries, 27 ints and a key
    each, hold at most about 4.5 MB; a pass that raises is not cached."""
    h, q = (p - 1) // 2, p - 1
    exp, log = log_tables(p)
    if exp.min() < 1 or exp.max() >= p or log.min() < 0 or log[0] != 2 * q \
            or np.any(log[exp] != np.arange(q)):
        raise FrobtraceError(f"kernel tables at p={p} leave their bounds")
    order = np.concatenate([exp[::2], exp[1::2], [0]])  # chi 1, -1, 0
    blocks = np.repeat(np.arange(3), (h, h, 1))         # of each row b'
    ident, neg = np.arange(p), -np.arange(p) % p

    def split(poly, s):
        """(terms, c): poly(a, b, s) is the sum of terms, ((a, b), coefficient
        mod p) pairs sorted and nonzero, plus the constant c mod p"""
        terms, const = {}, 0
        for mono in poly:
            a, b, e = mono.exponents
            c = mono.coefficient * s ** e
            if a or b:
                terms[a, b] = terms.get((a, b), 0) + c
            else:
                const += c
        return tuple(sorted((e, c % p) for e, c in terms.items() if c % p)), \
            const % p

    parts = [[split(r, 0), split(r, 1), split(m, 1)][:3 if k else 2]
             for r, m in groups]

    def degree(g, i):
        """the degree of the part of value polynomial i of group g, or 0"""
        terms = parts[g][i][0]
        return terms[0][0][0] + weights[g] * terms[0][0][1] if terms else 0

    orbit = all(w % 2 == 0 and len({a + w * b for (a, b), _ in t}) < 2
                for w, ps in zip(weights, parts) for t, _ in ps) and (
        not k or p >= _ORBIT_FROM and not parts[0][2][1]
        and not parts[1][2][1] and degree(1, 1) > degree(1, 2) > 0)
    grid = [np.arange(2 if orbit else p).reshape(1, -1), order.reshape(p, 1)]
    ends, memo = (0, h, 2 * h, p), {}

    def binned(f, size):
        """Per block, the bincount into size bins of f(rows), an array on
        the cells of the block's slice of rows"""
        return np.stack([np.bincount(f(slice(a, b)).reshape(-1), minlength=size)
                         for a, b in zip(ends, ends[1:])])

    def view(g, i):
        """(v, perm, hist, D, c) of value polynomial i of group g, r at s =
        0 and 1 and m: it is perm[v] + c, v its part of degree D on the
        rows, at a = 0 and 1 on the orbits and at every a on the grid, and
        hist() its part's histogram per block.  Parts that agree up to sign
        share v, the first coefficient made at most p/2."""
        terms, const = parts[g][i]
        flip = bool(terms) and 2 * terms[0][1] > p
        terms = tuple((e, p - c if flip else c) for e, c in terms)
        D = degree(g, i)
        if (terms, D) not in memo:
            v = _eval_mono_list([Monomial(c, e) for e, c in terms], grid, p)
            memo[terms, D] = v, lru_cache(None)(
                (lambda: _fold(v, D, blocks, p)) if orbit else
                (lambda: binned(v.__getitem__, p)))
        v, hist = memo[terms, D]
        perm = neg if flip else ident
        return v, perm, lambda: hist()[:, perm], D, const

    # at s = 0 the constant terms of r1 and r2 cancel, the equation being
    # homogeneous of positive degree; A counts the cells a = 0
    (v1, p1, h1, _, _), (v2, p2, h2, _, _) = view(0, 0), view(1, 0)
    z = h1() @ h2()[:, neg].T
    a1, a2 = (np.bincount(blocks * p + x, minlength=3 * p).reshape(3, p)
              for x in (p1[v1[:, 0]], neg[p2[v2[:, 0]]]))
    a0 = a1 @ a2.T
    (r1, p1, h1, D1, c1), (r2, p2, hr2, D2, c2) = view(0, 1), view(1, 1)
    if not k:
        F, phi = h1()[:, (-np.arange(p) - c1 - c2) % p], hr2()
    elif orbit:
        (m1, q1, _, d1, _), (m2, q2, _, d2, _) = view(0, 2), view(1, 2)
        F, phi = _orbit_convolution((p1[r1], D1), (q1[m1], d1), (p2[r2], D2),
                                    (q2[m2], d2), (c1 + c2) % p, k, hr2(),
                                    blocks, p)
    else:
        # w1's key is L[x] + S[lam] (x = -r1 - c1 - c2, lam = k (m1 + k1), S
        # the offsets of ffield.scaling for r2 + lam m2, of degrees D and
        # d), binned on n + 1 rows of 3q, folded to values by (E, E, 0);
        # a level's Phi value r2 + rho (m2 + k2) lies below 2p
        (m1, q1, _, _, k1), (m2, q2, _, _, k2) = view(0, 2), view(1, 2)
        wts = (1, weights[1], 1)
        dr, dm = groups[1][0][0].degree(wts), groups[1][1][0].degree(wts)
        target = log[(-p1 - c1 - c2) % p]
        shift = scaling(dr, dm, 1, p)[k * (q1 + k1) % p]
        levels = np.outer(exp[:gcd(dr - dm, q)], (q2 + k2) % p) % p
        size = (len(levels) + 1) * 3 * q
        if log.max() + shift.max() >= size:
            raise FrobtraceError(f"kernel tables at p={p} leave their bounds")
        keys = binned(lambda rows: target[r1[rows]] + shift[m1[rows]], size)
        keys = keys.reshape(3, -1, 3, q)
        F = np.zeros((3, len(levels) + 1, p), dtype=np.int64)
        F[..., exp] = keys[:, :, 0] + keys[:, :, 1]
        F[..., 0] = keys[:, :, 2].sum(axis=2)
        two = [binned(lambda rows: level[m2[rows]] + p2[r2[rows]], 2 * p)
               for level in levels]
        phi = np.stack([hr2()] + [x[:, :p] + x[:, p:] for x in two], axis=1)
        F, phi = F.reshape(3, -1), phi.reshape(3, -1)
    nf = F @ phi.T                                       # [block, block]
    return tuple(tuple(tuple(x) for x in m.tolist()) for m in (nf, z, a0))


def _two_group_count(model, p, label, flips=(False, False)):
    """(count, chunk count 1) of a variety through its declared CountModel
    (catalog) at an odd prime, twisted where flips (_flips) names the
    groups whose b a diagonal involution flips:

        r1(a1, b1, s) + r2(a2, b2, s) + k s^e m1(a1, b1) m2(a2, b2) = 0,

    k the coupling, and with a chi variable y also y^2 = b1 b2, which sums
    y out as the weight 1 + chi(b1) chi(b2) of a point (a1, b1, a2, b2).

    Scaling by l in F_p^* moves s, a1 and a2 by l and b1, b2 and y by
    l^weight.  The cone points with s != 0 are (p - 1) N1 points, N1 on the
    slice s = 1, all with trivial stabilizer; on s = 0 the coupling
    vanishes.  So with Phi_lam[c] = #{w2 : r2(w2, 1) + lam m2(w2) = c} and
    the histograms H_i of r_i(w, 0),

        N1 = sum_{w1} Phi_{k m1(w1)}[-r1(w1, 1)],
        Z = sum_c H_1[c] H_2[-c]         (origin included).

    The weighted total is (p - 1) N1 + Z - 1 plus, for each nonzero cone
    point with s = a1 = a2 = 0 (the a = 0 part A of Z), its stabilizer
    gcd(weight, p - 1) less 1.  The count is that total over p - 1.  An
    uncoupled model (k = 0 mod p, Consani-Scholten's P(x, y) = P(z, w))
    uses the row Phi_0 = H only.  When coupled, r2 and m2 are homogeneous
    of degrees D and d in (a, b), so w2 -> l w2 gives Phi_{rho l^(D-d)}[c]
    = Phi_rho[c l^-D]: Phi has one row per class of ffield.scaling, and N1
    = <F, Phi> for F the histogram of the points w1 keyed on those rows.

    One pass serves every weighting: O(n^2 p log p) along the scaling
    orbits, by FFT (_orbit_convolution), from 151 on, and O(p^2) on the
    grid otherwise (_block_pass).  A group of a model without chi
    whose r and m are even in b is halved first, b^2 -> b, and its b
    weighs twice: a value b then has 1 + chi(b) square roots, or 1 - chi(b)
    after the twist by a non-square.  The b axis of each grid is laid out
    in chi blocks, b-major: the (p - 1)/2 squares, the non-squares, then
    0, and a group whose b has even weight runs along its scaling orbits
    within each block.  Each histogram is three sums over the blocks' rows,
    and the pass yields the 3x3 block-pair matrices of <F, Phi>, Z and A.
    A count weights them by w1 (x) w2, w = (2, 0, 1) for a halved group, (0, 2, 1)
    for a flipped one and (1, 1, 1) otherwise, plus s (x) s, s = (1, -1, 0),
    with chi.  Scaling by a non-square swaps the square and non-square
    blocks of a b of odd weight, in Phi's rows and on the cone, so such a
    b takes (1, 1, 1).  The cache of _block_pass keys each pass by the
    halved groups, k, the weights of b and p, not by variety or twist, so
    counts share passes across pipelines.  The contraction runs through
    _run_chunks after the pass, on a hit too, so a lost cell there is
    never stored.

    All arithmetic is exact, under the bounds _block_pass checks, and the
    block matrices count pairs (w1, w2), at most p^4: exact in int64 for
    p < 2^15; they are weighted as Python ints.  The orbit convolution
    rounds float64 FFT values that count cells, at most p^2 < 2^22, and
    raises FrobtraceError unless each lies within 1/4 of an integer and
    every block's histograms total its cells.  It holds no p^2-cell array:
    under tracemalloc schoen_y's pass peaks at 0.64 p^2 8 bytes at 421 and
    0.089 at 1999 (the tests bound them at 1.0 and 0.1).  On the grid the
    value arrays (r_i at s = 0 and 1 and m_i, fewer where two agree up to a
    constant and a sign) are the only p^2-cell arrays, and the coupled
    gathers add two of a chi block's size: consani_scholten's pass holds
    two, as r2 = -r1, and peaks at 2.15 p^2 8 bytes at 421 (bound 2.3);
    schoen_y's at 149 holds r and m and peaks at 3.88 (bound 4.2); a model
    with a constant in m1 holds four and peaks at 5.07 at 1009 (bound 5.5;
    gathers on the whole grid read 6.06).  p < 2000 by the budget.
    """
    _require_cells("two-group kernel", p, lambda q: q * q, _MAX_HIST_CELLS)
    halves = [_halved(g, model.chi) for g in model.groups]
    k = model.coupling % p
    weights = tuple(model.weight * (2 if halved else 1)
                    for *_, halved in halves)
    nf, z, a0 = _block_pass(tuple((r, m) for r, m, _ in halves), k, weights, p)
    w1, w2 = (((0, 2, 1) if flip else (2, 0, 1)) if halved else (1, 1, 1)
              for flip, (*_, halved) in zip(flips, halves))
    sign = (1, -1, 0) if model.chi is not None else (0, 0, 0)
    weight = [[w1[i] * w2[j] + sign[i] * sign[j] for j in range(3)]
              for i in range(3)]
    stab = gcd(model.weight, p - 1)

    def contract(w):
        """sum of w_ij ((p - 1) NF_ij + Z_ij + (stab - 1) A_ij)"""
        return sum(w[i][j] * ((p - 1) * nf[i][j] + z[i][j]
                              + (stab - 1) * a0[i][j])
                   for i in range(3) for j in range(3))

    total = sum(_run_chunks(contract, [weight])) - stab
    if total % (p - 1):
        raise FrobtraceError(f"{label} at p={p}: weighted cone total is "
                             f"{total % (p - 1)} mod p-1, not 0")
    return total // (p - 1), 1


# ----------------------------------------------------------------- API

def count_projective(spec, p, degree=1):
    """#X(F_{p^degree}) for a variety in (straight) projective space; over
    F_{p^2} chart by chart from scaled root tables (_scaled_roots) or the
    Weil restrictions folded by conjugation (_folded)."""
    _field_degree(degree)
    _opening(spec, p, "projective", "degree-2 counts" if degree == 2 else None)
    return _counted(spec.id, p,
                    lambda: _count_dense(spec, p, spec.equations, degree),
                    spec.count_model if degree == 1 else None, degree)


@lru_cache(maxsize=64)
def check_preserves(spec, phi):
    """Verify symbolically that the involution maps each equation to an
    integer multiple of itself; raises ValidationError otherwise.  The
    expansion does not depend on p, so it runs once per (spec, phi); a
    refusal is not cached and raises on every call."""
    nv = spec.ambient.nvars
    if len(phi.matrix) != nv:
        raise ValidationError(f"{phi.id}: matrix size != ambient arity")
    for k, eq in enumerate(spec.equations):
        composed = _compose_equation(eq, phi.matrix, nv)
        if _ratio(composed, {m.exponents: m.coefficient for m in eq}) is None:
            raise ValidationError(f"{phi.id} does not preserve equation {k} of {spec.id}")
    return True


def _twist(eq, diag, n):
    """eq with s t_i substituted for each t_i where diag is -1, s^2 = n, or
    None when a monomial has an odd degree in those coordinates."""
    out = []
    for mono in eq:
        odd = sum(e for e, d in zip(mono.exponents, diag) if d == -1)
        if odd % 2:
            return None
        out.append(Monomial(mono.coefficient * n ** (odd // 2), mono.exponents))
    return tuple(out)


def count_twisted(spec, phi, p):
    """Count fixed points of Frobenius composed with the involution, i.e.
    the F_p-points of the quadratic twist of the variety by phi.

    Only diagonal +-1 involutions are supported: for those, the twisted
    form is obtained by substituting s*t_i (s a fixed square root of a
    non-residue) for the coordinates in the -1 eigenspace, which lands back
    in F_p coefficients exactly when phi preserves the equations.  Where
    phi flips only the b of groups even in b, the declared two-group model
    counts the twist by its block weights (_flips), from the pass its
    straight count makes; other twists are counted densely.
    """
    diag = _opening(spec, p, "projective", "twisted counts", phi)
    n = nonresidue(p)
    twisted_eqs = [_twist(eq, diag, n) for eq in spec.equations]
    if None in twisted_eqs:
        raise ValidationError(f"{spec.id}: equation not invariant under {phi.id}")
    flips = _flips(spec.count_model, diag)
    return _counted(spec.id, p, lambda: _count_dense(spec, p, twisted_eqs),
                    spec.count_model if flips else None, twist_id=phi.id,
                    flips=flips)


def count_weighted(spec, p):
    """Point count in weighted projective space by orbit counting: each
    nonzero cone point is weighted by #Stab = gcd(p-1, gcd of the weights
    of its nonzero coordinates), and the weighted total is divided by p-1.
    A declared two-group model is counted by the kernel; otherwise every
    cone point is enumerated, one slab per value of the first coordinate.
    """
    _opening(spec, p, "weighted_projective")
    return _counted(spec.id, p, lambda: _count_orbits(spec, p),
                    spec.count_model)


def _count_orbits(spec, p):
    """(count, chunk count) of a weighted-projective variety from every
    cone point, one slab per value of the first coordinate."""
    weights = spec.ambient.weights
    nv = len(weights)
    _require_cells("weighted count", p, lambda q: q ** nv, _MAX_DENSE_TOTAL)
    chunks = list(range(p))

    def worker(x0):
        coords = _grid(p, [x0] + [None] * (nv - 1))
        mask = _zeros(spec.equations, coords, p)
        gw = 0
        for c, w in zip(coords, weights):
            gw = np.gcd(gw, np.where(c != 0, w, 0))
        gw = np.broadcast_to(gw, mask.shape)[mask]
        return int(np.gcd(gw[gw != 0], p - 1).sum())

    total = sum(_run_chunks(worker, chunks))
    if total % (p - 1):
        raise FrobtraceError(f"{spec.id} at p={p}: stabilizer-weighted total is "
                             f"{total % (p - 1)} mod p-1, not 0")
    return total // (p - 1), len(chunks)


def _torus_equation(a, t):
    """The equation (X1 + ... + X5) sum_i a_i prod_{j != i} X_j = t X1...X5
    of count_torus as a monomial list sorted by exponents: a_i X_k^2
    prod_{j != i, k} X_j for each k != i, and (a1 + ... + a5 - t) X1...X5."""
    terms = {tuple(2 if j == k else 0 if j == i else 1 for j in range(5)):
             a[i] for k in range(5) for i in range(5) if i != k}
    terms[(1,) * 5] = sum(a) - t
    return tuple(Monomial(c, e) for e, c in sorted(terms.items()) if c)


def _pair_histogram(b, c, p):
    """H[s, u] = #{(x, y) in (F_p^*)^2 : x + y = s, b/x + c/y = u} for
    residues b and c, int32 entries of at most p - 1 (y = s - x): one
    bincount of the (p - 1)^2 pairs on the unreduced (s, u) in [0, 2p)^2,
    folded mod p, with b/x read off ffield.inverses."""
    x, inv = np.arange(2 * p, 2 * p * p, 2 * p), inverses(p)[1:]
    key = (x + b * inv % p)[:, None] + (x + c * inv % p)
    h = np.bincount(key.ravel(), minlength=4 * p * p).reshape(2, p, 2, p)
    return h.sum(axis=(0, 2), dtype=np.int32)


def _torus_pairs(a, t, p):
    """Torus count of count_torus's equation, met in the middle: at X5 = 1
    it reads (1 + S)(a5 + U) = t, S = X1 + ... + X4, U = a1/X1 + ... +
    a4/X4.  With H and H' the _pair_histogram of (X1, X2) and (X3, X4),
    the count is the sum over s, s' with r = 1 + s + s' != 0 of sum_u
    H[s, u] H'[s', t/r - a5 - u], plus, when t = 0, |H[s]| |H'[s']| for
    each r = 0.  For each r that is one int32 einsum of H against a window
    of F[x, y] = H'[-x, -y] tiled to 2p x 2p: p^3 products in O(p^2)
    memory, no polynomial evaluated.  A histogram entry is at most p - 1,
    a product at most (p - 1)^2 and every sum at most the count, at most
    (p - 1)^4 < 2^31, held by an if that python -O keeps (p <= 211; the
    budget stops at 157)."""
    _require_cells("torus count", p, lambda q: (q - 1) ** 3, _MAX_TORUS_CELLS)
    if (p - 1) ** 4 >= 1 << 31:
        raise FrobtraceError(f"torus count at p={p}: (p - 1)^4 points "
                             "reach 2^31, past its int32 sums")
    a, t = [x % p for x in a], t % p
    h, neg = _pair_histogram(a[0], a[1], p), -np.arange(2 * p) % p
    f = _pair_histogram(a[2], a[3], p)[np.ix_(neg, neg)]
    # H'[r - 1 - s, t/r - a5 - u] = F[s + 1 - r, u + a5 - t/r]
    shifts = ((a[4] - t * inverses(p)[1:]) % p).tolist()
    total = 0
    for r, d in enumerate(shifts, 1):
        c = (1 - r) % p
        total += int(np.einsum("ij,ij->", h, f[c:c + p, d:d + p]))
    if t == 0:                          # r = 0: F's row 1 + s is |H'[-1 - s]|
        total += int(h.sum(axis=1) @ f[1:p + 1, :p].sum(axis=1))
    return total


def count_torus(a, t, p):
    """Points with all coordinates nonzero on the cleared-denominator
    equation of (X1+...+X5)(a1/X1+...+a5/X5) = t, normalized X5 = 1,
    counted by _torus_pairs from two histograms of coordinate pairs.  An
    equation that vanishes mod p is refused, as is p past the budget of
    (p - 1)^3 cells: the largest prime accepted is 157."""
    require_prime(p)
    try:
        if bool in map(type, (*a, t)):
            raise TypeError
        a, t = [operator.index(x) for x in a], operator.index(t)
    except TypeError:
        raise ValidationError(f"torus parameters a = {a!r} and t = {t!r} "
                              "must be integers") from None
    if len(a) != 5:
        raise ValidationError("parameter vector a must have 5 entries")
    vid = "%s[a=%s;t=%d]" % (TORUS_FAMILY, ",".join(str(x) for x in a), t)
    eq = _torus_equation(a, t)
    if all(m.coefficient % p == 0 for m in eq):
        raise ValidationError(f"{vid}: equation 0 vanishes identically mod {p}")
    return _counted(vid, p, lambda: (_torus_pairs(a, t, p), 1))


def count_double_cover(spec, p):
    """Points of w^2 = f(x) over P^3, f the product of the stored linear
    forms, an even number of them: the sum over P^3 of 1 + chi(f(x)), chi
    the quadratic character with chi(0) = 0.

    chi is multiplicative, 0 included, so the sum factors over the forms'
    supports.  On each chunk of _count_dense (a chart or a slab of one)
    every form is evaluated on the grid of the coordinates it reads, the
    others given as 0-d arrays.  Forms are grouped by the chunk axes of
    extent above 1 in their values; a group's product is reduced mod p
    after each factor, so each product of two residues is below p^2 <
    2^62.  One integer einsum contracts chi of every group over the chunk,
    times the extent of each axis no group reads.  Each partial sum of that
    contraction is a sum of +-1 and 0 over at most the chunk's cells, at
    most _MAX_SLAB_CELLS = 4 10^6 in absolute value.  The cost is that of
    the largest support grid: O(p^2) per chart for a double octic whose
    planes each read at most two coordinates of a chart, and the full
    O(p^3) grid when a form reads every coordinate.  The slabs of a cut
    chart (p^3 > _MAX_SLAB_CELLS: p > 158 on the chart x0 = 1) differ only
    in their first free coordinate, so a form that does not read it is
    evaluated once per chart, and the einsum's contraction path is found
    once per chart.
    """
    _opening(spec, p, "double_cover_p3", "double cover counts")
    chi = chi_table(p)
    unread = np.zeros((), dtype=np.int64)
    reads = [[any(m.exponents[i] and m.coefficient % p for m in eq)
              for i in range(4)] for eq in spec.equations]
    forms, paths = {}, {}

    def on_chart(coords, fixed):
        lead = fixed.index(1)
        # a slab of the chart x_lead = 1 fixes its first free coordinate
        slab = lead < 3 and fixed[lead + 1] is not None
        shape = np.broadcast_shapes(*(c.shape for c in coords))
        groups = {}
        for i, (eq, read) in enumerate(zip(spec.equations, reads)):
            shared = slab and not read[lead + 1]
            v = forms.get((lead, i)) if shared else None
            if v is None:
                v = _eval_mono_list(
                    eq, [c if r else unread for c, r in zip(coords, read)], p)
                if shared:
                    forms[lead, i] = v
            key = tuple(j for j, n in enumerate(v.shape) if n > 1)
            if key in groups:   # in place, unless v serves the later slabs
                v = v * groups[key] if shared else np.multiply(
                    v, groups[key], out=v)
                reduce_mod(v, p)
            groups[key] = v
        # the empty product is 1: a chunk with no form sums chi(1) per cell
        ops = [x for key, v in groups.items() for x in (chi[v.squeeze()], key)]
        if slab and ops and lead not in paths:
            paths[lead] = np.einsum_path(*ops, (), optimize="greedy")[0]
        chi_sum = int(np.einsum(*ops, (), optimize=paths.get(lead, "greedy"))
                      ) if ops else 1
        seen = {i for key in groups for i in key}
        chi_sum *= prod(n for i, n in enumerate(shape) if i not in seen)
        return prod(shape) + chi_sum

    return _counted(spec.id, p, lambda: _count_dense(spec, p, (), on_chart=on_chart))


def count(spec, p, degree=1):
    """#X(F_{p^degree}) with the counter for the ambient space of spec.

    Torus varieties are counted at the (a, t) stored under spec.known.  Only
    projective varieties are counted over F_{p^2}.
    """
    _field_degree(degree)
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
