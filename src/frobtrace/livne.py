"""Effective comparison of 2-adic Galois representations by the
quadratic-signature covering criterion.

Two representations unramified outside S with even traces and equal
determinant parity are forced to have isomorphic semisimplifications once
their traces agree on a set of primes whose quadratic signatures cover
every non-identity class of the elementary 2-group cut out by S.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .ffield import is_prime, kronecker, require_prime


@dataclass(frozen=True)
class SignatureBasis:
    entries: tuple        # discriminant generators d; signature is (d/p)
    s: frozenset          # the ramification set the basis belongs to


def build_basis(s):
    """Multiplicative generators for Q(sqrt(d), d supported on S)/Q.

    With 2 in S the convenient generators are -1, 2 and the odd primes of
    S; without 2 the signed primes p* = (-1)^((p-1)/2) p generate the
    unramified-at-2 quotient.
    """
    s = frozenset(s)
    if not s:
        raise ValidationError("S must be nonempty")
    for q in s:
        if not is_prime(q):
            raise ValidationError(f"S contains non-prime {q}")
    odd = sorted(q for q in s if q != 2)
    if 2 in s:
        entries = [-1, 2] + odd
    else:
        entries = [q if q % 4 == 1 else -q for q in odd]
    return SignatureBasis(tuple(entries), s)


def frobenius_signature(basis, p):
    """Tuple of Kronecker symbols (d/p) over the basis entries; p must be a
    prime outside S (the symbols degenerate on ramified primes)."""
    require_prime(p)
    if p in basis.s or (p == 2 and any(d % 2 == 0 or d == -1 for d in basis.entries)):
        raise ValidationError(f"signature undefined at p={p} (ramified)")
    sig = tuple(kronecker(d, p) for d in basis.entries)
    if 0 in sig:
        raise ValidationError(f"signature degenerate at p={p}")
    return sig


@dataclass(frozen=True)
class CoverReport:
    basis: SignatureBasis
    signatures: dict       # prime -> signature tuple
    missing: tuple         # uncovered non-identity signature tuples
    complete: bool


def check_cover(s, t_set):
    """Do the signatures of T cover every non-identity class of the
    2-group generated by the basis of S?"""
    basis = build_basis(s)
    sigs = {p: frobenius_signature(basis, p) for p in sorted(t_set)}
    k = len(basis.entries)
    identity = (1,) * k
    needed = set()
    for mask in range(1, 1 << k):
        needed.add(tuple(-1 if mask >> i & 1 else 1 for i in range(k)))
    hit = set(sigs.values()) - {identity}
    missing = tuple(sorted(needed - hit))
    return CoverReport(basis, sigs, missing, not missing)


def find_cover_set(s, bound=1000):
    """Smallest-prime-first deterministic cover: walk primes in increasing
    order, keep each one whose signature is a not-yet-seen non-identity
    class, stop when the cover is complete."""
    basis = build_basis(s)
    k = len(basis.entries)
    identity = (1,) * k
    seen, out = set(), []
    p = 3                    # odd primes outside S: every symbol is +-1
    while len(seen) < (1 << k) - 1:
        if p > bound:
            raise ValidationError(f"no complete cover set below {bound}")
        if is_prime(p) and p not in basis.s:
            sig = frobenius_signature(basis, p)
            if sig != identity and sig not in seen:
                seen.add(sig)
                out.append(p)
        p += 1
    return out


@dataclass(frozen=True)
class LivneReport:
    status: str
    detail: str
    cover: CoverReport


STATUS_OK = "isomorphic_semisimplifications"
STATUS_EVEN = "evenness_failed"
STATUS_COVER = "cover_incomplete"
STATUS_TRACE = "trace_mismatch"


def livne_compare(traces1, traces2, s, t_set, dets_match_parity=True):
    """Compare two trace collections by the covering criterion.

    traces1/traces2 map primes to integer Frobenius traces and must cover
    every prime of T.  The criterion has two hypotheses: every trace is
    even, and the two determinants have equal parity.  The second cannot
    be seen from traces alone, so the caller asserts it with
    dets_match_parity.  Odd traces fall outside the criterion and return
    evenness failed: so does the 2-dimensional rigid model, whose traces
    a_p(f25) are odd (a_3 = 7), and which needs another argument.
    Returns a LivneReport whose status is one of: isomorphic
    semisimplifications, evenness failed, cover incomplete, trace mismatch.
    """
    t_set = sorted(t_set)
    for p in t_set:
        if p not in traces1 or p not in traces2:
            raise ValidationError(f"missing trace at p={p}")
    cover = check_cover(s, t_set)
    if not dets_match_parity:
        return LivneReport(STATUS_EVEN, "determinant parities differ", cover)
    odd = [(p, v) for tr in (traces1, traces2) for p, v in sorted(tr.items())
           if v % 2 != 0]
    if odd:
        p, v = odd[0]
        return LivneReport(STATUS_EVEN, f"odd trace {v} at p={p}", cover)
    if not cover.complete:
        return LivneReport(STATUS_COVER,
                           f"{len(cover.missing)} signature classes uncovered",
                           cover)
    bad = [p for p in t_set if traces1[p] != traces2[p]]
    if bad:
        return LivneReport(STATUS_TRACE, f"traces differ at {bad}", cover)
    return LivneReport(STATUS_OK, "traces agree on a complete cover", cover)
