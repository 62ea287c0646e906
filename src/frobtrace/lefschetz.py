"""Frobenius traces on middle cohomology via the Lefschetz fixed point
formula, node corrections for the two resolution types, an exact Betti
number solver, an Euler characteristic ledger, and point-count a_p for the
nodal plane quintic's elliptic normalization.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from math import comb

import numpy as np

from .catalog import (Monomial, singular_points, _charts, _eval_mono_list,
                      _grid, _partial, _restrict, _zeros)
from .errors import RefusalError, ValidationError
from .ffield import PrimeField, kronecker


def trace_h3(n_p, p, b2, correction):
    """Trace of Frobenius on H^3 from a point count.

    Solves #X(F_p) + correction = 1 + (p + p^2) b2 + p^3 - t3 for t3.  The
    correction carries whatever the chosen resolution adds to the raw count,
    and b2 is the number of H^2 classes counted with their Frobenius action
    assumed trivial (Tate twists of algebraic classes).
    """
    return 1 + (p + p * p) * b2 + p ** 3 - (n_p + correction)


def node_correction(spec, p, resolution, splitting_discriminant, n_rational=None):
    """Count adjustment for resolving the F_p-rational nodes.

    Returns the integer to feed trace_h3 as `correction` (equivalently, to
    add to the singular count to model the resolved variety).  For a small
    resolution each rational node contributes +p or -p according to the
    Kronecker symbol of the splitting discriminant; for a big resolution
    each contributes p^2 + 2p (split quadric) or p^2 (non-split).
    """
    d = splitting_discriminant
    if d == 0 or d % p == 0:
        raise ValidationError(f"splitting discriminant {d} divisible by p={p}")
    if resolution not in ("small", "big"):
        raise ValidationError(f"unknown resolution type {resolution!r}")
    if n_rational is None:
        n_rational = len(singular_points(spec, p))
    sym = kronecker(d, p)
    if resolution == "small":
        return n_rational * sym * p
    return n_rational * (p * p + (2 * p if sym == 1 else 0))


def solve_betti(n_p, p, chi, b2_cap=100_000):
    """All pairs (b2, b3) with chi = 2 + 2 b2 - b3, b3 >= 0, b2 >= 1, such
    that the trace forced by the count satisfies the Weil bound
    |t3| <= b3 p^{3/2} (compared exactly as t3^2 <= b3^2 p^3).

    The trace grows by p + p^2 per extra b2 while the bound grows by
    2 p^{3/2} < p + p^2, so the search terminates as soon as the trace
    leaves the window from above.
    """
    out = []
    b2 = max(1, -((2 - chi) // 2))
    while b2 <= b2_cap:
        b3 = 2 + 2 * b2 - chi
        if b3 >= 0:
            t3 = trace_h3(n_p, p, b2, 0)
            if t3 * t3 <= b3 * b3 * p ** 3:
                out.append({"b2": b2, "b3": b3})
            elif t3 > 0:
                break
        b2 += 1
    return out


# ------------------------------------------------------------ Euler ledger

LEDGER_KINDS = ("base_chi", "contract_nodes", "riemann_hurwitz", "replace",
                "resolve_nodes_big", "resolve_nodes_small")


@dataclass(frozen=True)
class LedgerMove:
    kind: str
    args: tuple

    def __post_init__(self):
        if self.kind not in LEDGER_KINDS:
            raise ValidationError(f"unknown ledger move {self.kind!r}")
        want = 2 if self.kind == "replace" else 1
        if len(self.args) != want:
            raise ValidationError(f"{self.kind} takes {want} argument(s)")


def base_chi(v):
    return LedgerMove("base_chi", (v,))


def contract_nodes(k):
    return LedgerMove("contract_nodes", (k,))


def riemann_hurwitz(chi_fixed):
    return LedgerMove("riemann_hurwitz", (chi_fixed,))


def replace(old, new):
    return LedgerMove("replace", (old, new))


def resolve_nodes_big(k):
    return LedgerMove("resolve_nodes_big", (k,))


def resolve_nodes_small(k):
    return LedgerMove("resolve_nodes_small", (k,))


@dataclass(frozen=True)
class LedgerResult:
    final: int
    checkpoints: tuple      # chi after each move, same length as the ledger


def euler_ledger(moves):
    """Fold a list of LedgerMoves into an Euler characteristic.

    Moves: base_chi(v) starts the ledger (must come first and only first);
    contract_nodes(k) contracts k vanishing 3-spheres to points (+k);
    riemann_hurwitz(c) passes to a free-away-from-fixed double quotient,
    chi -> (chi + c)/2 with c the fixed locus characteristic (must divide
    evenly); replace(old, new) swaps a subset of characteristic old for one
    of characteristic new; resolve_nodes_big(k) blows up k nodes into
    quadric surfaces (+3k); resolve_nodes_small(k) into lines (+k).
    """
    if not moves or moves[0].kind != "base_chi":
        raise ValidationError("ledger must start with base_chi")
    chi = None
    steps = []
    for i, mv in enumerate(moves):
        if mv.kind == "base_chi":
            if i != 0:
                raise ValidationError("base_chi only allowed as the first move")
            chi = mv.args[0]
        elif mv.kind == "contract_nodes":
            chi += mv.args[0]
        elif mv.kind == "riemann_hurwitz":
            tot = chi + mv.args[0]
            if tot % 2 != 0:
                raise ValidationError(
                    f"riemann_hurwitz: chi + chi_fixed = {tot} is odd")
            chi = tot // 2
        elif mv.kind == "replace":
            chi += mv.args[1] - mv.args[0]
        elif mv.kind == "resolve_nodes_big":
            chi += 3 * mv.args[0]
        else:
            chi += mv.args[0]
        steps.append(chi)
    return LedgerResult(chi, tuple(steps))


def quotient_ledger():
    """The resolution ledger of the nodal-quintic quotient: smooth quintic,
    contract 125 nodes, quotient by the involution (fixed locus a line plus
    a 5-nodal plane quintic curve, chi = 2 - 5), replace the line and the
    curve by P^1-bundles, then big-resolve the 70 remaining nodes."""
    return [base_chi(-200), contract_nodes(125), riemann_hurwitz(-3),
            replace(2, 4), replace(-5, -10), resolve_nodes_big(70)]


# ------------------------------------------------------------- trace table

@dataclass(frozen=True)
class TraceRow:
    p: int
    n_p: int
    b2: int
    correction: int
    t3: int
    candidate_ap: int
    match: bool


@dataclass(frozen=True)
class TraceTable:
    variety_id: str
    rows: tuple


CSV_COLUMNS = ["p", "N_p", "b2", "correction", "t3", "candidate_ap", "match"]


def write_trace_table(table, fh):
    w = csv.writer(fh)
    w.writerow(CSV_COLUMNS)
    for r in table.rows:
        w.writerow([r.p, r.n_p, r.b2, r.correction, r.t3, r.candidate_ap,
                    "true" if r.match else "false"])


def read_trace_table(fh, variety_id=""):
    rd = csv.reader(fh)
    header = next(rd)
    if header != CSV_COLUMNS:
        raise ValidationError(f"unexpected trace table header {header}")
    rows = []
    for rec in rd:
        if not rec:
            continue
        rows.append(TraceRow(int(rec[0]), int(rec[1]), int(rec[2]),
                             int(rec[3]), int(rec[4]), int(rec[5]),
                             rec[6] == "true"))
    return TraceTable(variety_id, tuple(rows))


# --------------------------------------------- elliptic curve normalization

# b^2 - 4ac as a monomial list in (a, b, c)
_DISCRIMINANT = (Monomial(1, (0, 2, 0)), Monomial(-4, (1, 0, 1)))


def _second_taylor(eq, i, j):
    """The coefficient of h_i h_j in f(x + h), as a monomial list in x: a
    monomial c x^e gives c C(e_i, 2) x^e / x_i^2 for i = j and
    c e_i e_j x^e / (x_i x_j) otherwise."""
    out = []
    for mono in eq:
        e = list(mono.exponents)
        c = mono.coefficient * (comb(e[i], 2) if i == j else e[i] * e[j])
        if c:
            e[i] -= 1
            e[j] -= 1
            out.append(Monomial(c, tuple(e)))
    return tuple(out)


def elliptic_ap(spec, p, degree=1):
    """a_p (or a_{p^degree}) of the normalization of a nodal plane curve:
    q + 1 minus the count of smooth points plus two branch points for each
    rational node whose tangent cone splits over F_q.

    In the chart x_lead = 1 the cone at a node is a h_i^2 + b h_i h_j +
    c h_j^2, which splits when b^2 - 4ac is a square.  Over F_{p^2} a
    nonzero value is a square exactly when its norm is a square mod p.  In
    characteristic 2 the discriminant is b^2, so a node has b = 1 and its
    cone splits exactly when ac = 0.
    """
    if p in spec.bad_primes:
        raise RefusalError(f"{spec.id}: {p} is a bad prime")
    if degree not in (1, 2):
        raise ValidationError("degree must be 1 or 2")
    if spec.ambient.kind != "projective" or len(spec.equations) != 1 \
            or spec.ambient.n != 2:
        raise ValidationError(f"{spec.id}: need a plane curve")
    field = PrimeField(p)                       # refuses composite p
    n = field.nonresidue if degree == 2 else None

    def lift(f):
        return (f,) if n is None else _restrict(f, n)

    eq = spec.equations[0]
    curve = lift(eq)
    parts = [g for v in range(3) for g in lift(_partial(eq, v))]
    taylor = {(i, j): lift(_second_taylor(eq, i, j))
              for i in range(3) for j in range(i, 3)}
    disc_poly = lift(_DISCRIMINANT)
    smooth = branches = 0
    for fixed in _charts(p, 3, degree):
        lead = fixed.index(1) // degree         # x_lead = 1 is the first 1
        i, j = (v for v in range(3) if v != lead)
        coords = _grid(p, fixed)
        on = _zeros(curve, coords, p)
        at = [np.broadcast_to(x, on.shape)[on] for x in coords]
        node = _zeros(parts, at, p)
        smooth += int(np.count_nonzero(~node))
        at = [x[node] for x in at]
        abc = [_eval_mono_list(g, at, p)
               for ij in ((i, i), (i, j), (j, j)) for g in taylor[ij]]
        disc = [_eval_mono_list(g, abc, p) for g in disc_poly]
        if n is not None:                       # over F_{p^2}: its norm
            disc = [_eval_mono_list((Monomial(1, (2, 0)),
                                     Monomial(-n, (0, 2))), disc, p)]
        if np.any(disc[0] == 0):
            raise ValidationError(
                f"{spec.id}: singular point at p={p} is not a node")
        if p == 2:
            # b = 1: a h^2 + h k + c k^2 splits iff a c = 0 (Artin-Schreier)
            split = abc[0] * abc[2] % 2 == 0
        else:
            split = [kronecker(int(d), p) == 1 for d in disc[0]]
        branches += 2 * int(np.count_nonzero(split))
    return p ** degree + 1 - (smooth + branches)
