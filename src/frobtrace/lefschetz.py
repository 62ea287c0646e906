"""Frobenius traces on middle cohomology via the Lefschetz fixed point
formula, node corrections for the two resolution types, an exact Betti
number solver, an Euler characteristic ledger, and two readings of a nodal
plane curve's points, nodes, split nodes and a_p of its normalization.
nodal_curve scans the curve's p^2 cells with the catalog's node search.
declared_curve reads the same four numbers in O(p), with no scan, from the
normalization the catalog declares (a Weierstrass model, nodes as exponent
vectors of a root of unity, and their splitting discriminant).  The
quotient pipeline and elliptic_ap read a curve this way, elliptic_ap over
F_{p^2} by a_{p^2} = a_p^2 - 2p; Tier-1 checks both against nodal_curve.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .catalog import (_MAX_SLAB_CELLS, Monomial, _charts, _eval_mono_list,
                      _partial, _require_cells, _require_good, _restrict,
                      _singular_scan)
from .errors import ValidationError
from .ffield import (_field_degree, chi_table, kronecker, nonresidue,
                     require_prime)


def trace_h3(n_p, p, b2, correction):
    """Trace of Frobenius on H^3 from a point count.

    Solves #X(F_p) + correction = 1 + (p + p^2) b2 + p^3 - t3 for t3.  The
    correction carries whatever the chosen resolution adds to the raw count,
    and b2 is the number of H^2 classes counted with their Frobenius action
    assumed trivial (Tate twists of algebraic classes).
    """
    return 1 + (p + p * p) * b2 + p ** 3 - (n_p + correction)


def node_correction(p, resolution, splitting_discriminant, n_rational):
    """Count adjustment for resolving the n_rational F_p-rational nodes.

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
    sym = kronecker(d, p)
    if resolution == "small":
        return n_rational * sym * p
    return n_rational * (p * p + (2 * p if sym == 1 else 0))


_MAX_B2 = 100_000                # solve_betti searches b2 up to this


def solve_betti(n_p, p, chi):
    """All pairs (b2, b3) with chi = 2 + 2 b2 - b3, b3 >= 0, b2 >= 1, such
    that the trace forced by the count satisfies the Weil bound
    |t3| <= b3 p^{3/2} (compared exactly as t3^2 <= b3^2 p^3).

    The trace grows by p + p^2 per extra b2 while the bound grows by
    2 p^{3/2} < p + p^2, so the search terminates as soon as the trace
    leaves the window from above.  p must be prime.
    """
    require_prime(p)
    if type(chi) is bool or not isinstance(chi, numbers.Integral):
        raise ValidationError(f"chi {chi!r} is not an integer")
    out = []
    for b2 in range(max(1, -((2 - chi) // 2)), _MAX_B2 + 1):
        b3 = 2 + 2 * b2 - chi
        if b3 >= 0:
            t3 = trace_h3(n_p, p, b2, 0)
            if t3 * t3 <= b3 * b3 * p ** 3:
                out.append({"b2": b2, "b3": b3})
            elif t3 > 0:
                break
    return out


# ------------------------------------------------------------ Euler ledger

def _first(chi, v):
    if chi is not None:
        raise ValidationError("base_chi only allowed as the first move")
    return v


def _halve(chi, chi_fixed):
    if (chi + chi_fixed) % 2:
        raise ValidationError(f"riemann_hurwitz: chi + chi_fixed = "
                              f"{chi + chi_fixed} is odd")
    return (chi + chi_fixed) // 2


# kind -> (arity, step): step(chi, *args) is chi after the move, chi None
# before the first
_MOVES = {
    "base_chi": (1, _first),
    "contract_nodes": (1, lambda chi, k: chi + k),
    "riemann_hurwitz": (1, _halve),
    "replace": (2, lambda chi, old, new: chi + new - old),
    "resolve_nodes_big": (1, lambda chi, k: chi + 3 * k),
    "resolve_nodes_small": (1, lambda chi, k: chi + k),
}


@dataclass(frozen=True)
class LedgerMove:
    kind: str
    args: tuple

    def __post_init__(self):
        if self.kind not in _MOVES:
            raise ValidationError(f"unknown ledger move {self.kind!r}")
        want = _MOVES[self.kind][0]
        if len(self.args) != want:
            raise ValidationError(f"{self.kind} takes {want} argument(s)")


@dataclass(frozen=True)
class LedgerResult:
    final: int
    checkpoints: tuple      # chi after each move, same length as the ledger


def euler_ledger(moves):
    """Fold a list of LedgerMoves into an Euler characteristic, each by
    its step in _MOVES.

    Kinds, with their arguments: base_chi (v) starts the ledger (must come
    first and only first); contract_nodes (k) contracts k vanishing
    3-spheres to points (+k); riemann_hurwitz (c) passes to a
    free-away-from-fixed double quotient, chi -> (chi + c)/2 with c the
    fixed locus characteristic (must divide evenly); replace (old, new)
    swaps a subset of characteristic old for one of characteristic new;
    resolve_nodes_big (k) blows up k nodes into quadric surfaces (+3k);
    resolve_nodes_small (k) into lines (+k).
    """
    if not moves or moves[0].kind != "base_chi":
        raise ValidationError("ledger must start with base_chi")
    chi, steps = None, []
    for mv in moves:
        chi = _MOVES[mv.kind][1](chi, *mv.args)
        steps.append(chi)
    return LedgerResult(chi, tuple(steps))


def quotient_ledger():
    """The resolution ledger of the nodal-quintic quotient: smooth quintic,
    contract 125 nodes, quotient by the involution (fixed locus a line plus
    a 5-nodal plane quintic curve, chi = 2 - 5), replace the line and the
    curve by P^1-bundles, then big-resolve the 70 remaining nodes."""
    return [LedgerMove(*m) for m in (
        ("base_chi", (-200,)), ("contract_nodes", (125,)),
        ("riemann_hurwitz", (-3,)), ("replace", (2, 4)),
        ("replace", (-5, -10)), ("resolve_nodes_big", (70,)))]


# --------------------------------------------- elliptic curve normalization

# b^2 - 4ac as a monomial list in (a, b, c)
_DISCRIMINANT = (Monomial(1, (0, 2, 0)), Monomial(-4, (1, 0, 1)))


def _second_taylor(eq, i, j):
    """The coefficient of h_i h_j in f(x + h), as a monomial list in x: the
    second partial d_i d_j f, halved for i = j, where c x^e gives
    c e_i (e_i - 1) = 2 c C(e_i, 2)."""
    return tuple(Monomial(m.coefficient // (2 if i == j else 1), m.exponents)
                 for m in _partial(_partial(eq, i), j))


class NodalCurve(NamedTuple):
    """A nodal plane curve over F_q: its points, its F_q-rational nodes, the
    nodes among those whose tangent cone splits over F_q, and a_q of its
    normalization, q + 1 - (points - nodes + 2 split)."""
    points: int
    nodes: int
    split: int
    ap: int


def nodal_curve(spec, p, degree=1):
    """One scan of a nodal plane curve over F_{p^degree}, on the node
    search of the catalog, as a NodalCurve.

    In the chart x_lead = 1 the cone at a node is a h_i^2 + b h_i h_j +
    c h_j^2, which splits when b^2 - 4ac is a square: chi_table(p, degree)
    at its index, over F_{p^2} R + I p from the Weil restriction (R, I).  In
    characteristic 2 the discriminant is b^2, so a node has b = 1 and its
    cone splits exactly when ac = 0.  A singular point whose discriminant
    vanishes is not a node, and is a ValidationError.
    """
    _require_good(spec, p)
    _field_degree(degree)
    if spec.ambient.kind != "projective" or len(spec.equations) != 1 \
            or spec.ambient.n != 2:
        raise ValidationError(f"{spec.id}: need a plane curve")
    n = nonresidue(p) if degree == 2 else None
    taylor = {(i, j): _restrict(_second_taylor(spec.equations[0], i, j), n)
              for i in range(3) for j in range(i, 3)}
    disc_poly = _restrict(_DISCRIMINANT, n)
    points = nodes = split = 0
    for fixed, at, node in _singular_scan(spec, p, n):
        lead = fixed.index(1) // degree         # x_lead = 1 is the first 1
        i, j = (v for v in range(3) if v != lead)
        points += node.size
        k = int(np.count_nonzero(node))
        if not k:                       # no Taylor or discriminant to read
            continue
        nodes += k
        at = [x[node] for x in at]
        abc = [_eval_mono_list(g, at, p)
               for ij in ((i, i), (i, j), (j, j)) for g in taylor[ij]]
        disc = sum(_eval_mono_list(g, abc, p) * p ** k
                   for k, g in enumerate(disc_poly))
        if np.any(disc == 0):
            raise ValidationError(
                f"{spec.id}: singular point at p={p} is not a node")
        if p == 2:
            # b = 1: a h^2 + h k + c k^2 splits iff a c = 0 (Artin-Schreier)
            split += int(np.count_nonzero(abc[0] * abc[2] % 2 == 0))
        else:
            split += int(np.count_nonzero(chi_table(p, degree)[disc] == 1))
    return NodalCurve(points, nodes, split,
                      p ** degree + 1 - (points - nodes + 2 * split))


def declared_curve(spec, p):
    """The NodalCurve of a plane curve at an odd good prime p, from its
    declared normalization, in O(p) and with no scan; equal to
    nodal_curve(spec, p) wherever the declaration is right.

    a_p = -sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6), read from chi_table;
    the rational nodes are the declared vectors that Frobenius fixes
    (RootNodes.rational); each splits exactly when the splitting
    discriminant D is a square, and points = p + 1 - a_p - nodes (D/p).
    The budget is _MAX_SLAB_CELLS values of x, under the tables' bounds.
    """
    _require_good(spec, p)
    norm = spec.normalization
    if norm is None:
        raise ValidationError(f"{spec.id}: no normalization declared")
    if p == 2:
        raise ValidationError(f"{spec.id}: declared_curve needs an odd prime")
    _require_cells("Weierstrass a_p", p, lambda q: q, _MAX_SLAB_CELLS)
    b2, b4, b6, _ = norm.b_invariants()
    f = _eval_mono_list((Monomial(4, (3,)), Monomial(b2, (2,)),
                         Monomial(2 * b4, (1,)), Monomial(b6, (0,))),
                        [np.arange(p, dtype=np.int64)], p)
    ap = -int(chi_table(p)[f].sum())
    nodes = norm.nodes.rational(p)
    sym = kronecker(norm.splitting_discriminant, p)
    return NodalCurve(p + 1 - ap - nodes * sym, nodes,
                      nodes if sym == 1 else 0, ap)


def elliptic_ap(spec, p, degree=1):
    """a_q, q = p^degree, of the normalization of a nodal plane curve: at odd
    p from a declared one in O(p), a_p or a_{p^2} = a_p^2 - 2p, else from
    nodal_curve, the oracle, whose F_{p^2} chart budget bounds degree 2."""
    _require_good(spec, p)
    _field_degree(degree)
    if spec.normalization is None or p == 2:
        return nodal_curve(spec, p, degree).ap
    if degree == 2:
        _charts(p, spec.ambient.nvars, 2)      # the oracle's budget
    a = declared_curve(spec, p).ap
    return a * a - 2 * p if degree == 2 else a
