"""Match pipelines, reproduction manifests, and the command line interface.

The pipelines assemble counts into H^3 traces and compare them against
newform coefficients.  Free parameters of the resolution bookkeeping (the
splitting discriminant of the node quadrics and the number of Galois-gated
divisor classes) are calibrated at a single prime and then frozen for all
other rows, which is what makes the agreement at the remaining primes a
check rather than a fit.  Each pipeline is a model (its counts, rational
nodes, base b2 and target trace at a prime); one calibration and one
freeze serve the rigid match, the quotient match and the Betti count,
whose frozen values are those the quotient calibration gives at p = 11.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass, asdict
from typing import Callable, NamedTuple

from . import counting, lefschetz, livne, qexp
from .catalog import load_catalog, singular_points
from .errors import FrobtraceError, RefusalError, ValidationError
from .ffield import is_prime, kronecker

# Candidate splitting discriminants, tried in this order during
# calibration.  The list covers the square classes supported on the bad
# primes of the catalog's quintic models; the order makes calibration
# deterministic when several candidates fit at the calibration prime.
DISC_CANDIDATES = (5, -5, -1, 2, -2)


@dataclass(frozen=True)
class MatchRow:
    p: int
    n_p: int
    correction: int
    b2: int
    t3: int
    candidate_ap: int
    equal: bool


@dataclass(frozen=True)
class MatchReport:
    variety_id: str
    form: str
    companion: str
    calibration_prime: int
    calibrated: dict
    rows: tuple
    overall: bool

    def to_json(self):
        return {
            "variety_id": self.variety_id,
            "form": self.form,
            "companion": self.companion,
            "calibration_prime": self.calibration_prime,
            "calibrated": self.calibrated,
            "rows": [asdict(r) for r in self.rows],
            "overall": self.overall,
        }


def _schoen_rational_nodes(p):
    """Rational nodes of the nodal quintic: the 125 node coordinates are
    fifth roots of unity up to scaling, so all of them are rational exactly
    when p = 1 mod 5 and only the all-ones node is otherwise."""
    return 125 if p % 5 == 1 else 1


def _require_good(spec, p):
    if p in spec.bad_primes:
        raise RefusalError(f"{spec.id}: {p} is a bad prime")


# ------------------------------------------------- calibrate, then freeze

class _Counts(NamedTuple):
    """What a pipeline knows at one good prime before calibration."""
    count: int      # point count before the nodes are resolved
    nodes: int      # F_p-rational nodes taking the resolution
    b2: int         # H^2 classes that are Frobenius invariant at every prime


class _Model(NamedTuple):
    counts: Callable        # (cat, variety_id, p) -> _Counts
    target: Callable        # (cat, nform, p) -> the candidate trace
    companion: str | None
    resolution: str         # "small" or "big", as node_correction takes it
    described: dict         # the per-node terms of calibrated["correction"]
    resolved_n_p: bool      # rows report the resolved count as n_p


class _Frozen(NamedTuple):
    """The free parameters that calibration fixes for every other row."""
    disc: int       # splitting discriminant D of the node quadrics
    gated: int      # divisor classes Frobenius invariant only at p = 1 mod 5


def _freeze(model, frozen, p, c, target):
    """The MatchRow at p under the frozen parameters."""
    corr = lefschetz.node_correction(None, p, model.resolution, frozen.disc,
                                     n_rational=c.nodes)
    b2 = c.b2 + (frozen.gated if p % 5 == 1 else 0)
    t3 = lefschetz.trace_h3(c.count, p, b2, corr)
    n_p = c.count + corr if model.resolved_n_p else c.count
    return MatchRow(p, n_p, corr, b2, t3, target, t3 == target)


def _calibrate(model, p0, c, target):
    """The first discriminant in DISC_CANDIDATES, with its number of gated
    classes, whose freeze gives the target trace at p0.  Each H^2 class
    adds p0 + p0^2 to t3."""
    step = p0 + p0 * p0
    rejected = []
    for d in DISC_CANDIDATES:
        if d % p0 == 0:
            rejected.append(f"D={d}: p={p0} divides D")
            continue
        row = _freeze(model, _Frozen(d, 0), p0, c, target)
        gated, rem = divmod(target - row.t3, step)
        if rem:
            rejected.append(f"D={d}: b2 = {row.b2 * step + target - row.t3}"
                            f"/{step} is not an integer")
        elif gated < 0:
            rejected.append(f"D={d}: b2 = {row.b2 + gated} is below the "
                            f"base {row.b2}")
        elif gated and p0 % 5 != 1:
            rejected.append(f"D={d}: {gated} gated classes at p={p0}, "
                            f"which is not 1 mod 5")
        else:
            return _Frozen(d, gated)
    raise ValidationError(f"calibration at p={p0} admits no integer "
                          f"solution: {'; '.join(rejected)}")


def _match(model, variety_id, primes, calibration_prime, cat, nform):
    """Calibrate at one prime, freeze, and compare every row's trace with
    its target; the calibration row itself does not count as a check."""
    p0 = calibration_prime
    for p in sorted(set(primes) | {p0}):
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
    gated_rows = sorted({p for p in primes if p % 5 == 1})
    if p0 % 5 != 1 and gated_rows:
        raise RefusalError(
            f"calibration at p={p0} cannot determine the gated divisor "
            f"classes, which are Frobenius invariant only at p = 1 mod 5, "
            f"so the rows at {gated_rows} cannot be checked; use a "
            f"calibration prime = 1 mod 5, such as 11")
    cat = cat or load_catalog()
    primes = sorted(set(primes) | {p0})
    if nform is None:
        nform = qexp.f25(max(primes))
    counts = {p: model.counts(cat, variety_id, p) for p in primes}
    targets = {p: model.target(cat, nform, p) for p in primes}
    frozen = _calibrate(model, p0, counts[p0], targets[p0])
    calibrated = {"b2": counts[p0].b2 + frozen.gated, "correction": {
        "resolution": model.resolution,
        "splitting_discriminant": frozen.disc,
        **model.described,
        "gated_classes": frozen.gated}}
    rows = tuple(_freeze(model, frozen, p, counts[p], targets[p])
                 for p in primes)
    ok = all(r.equal for r in rows if r.p != p0)
    return MatchReport(variety_id, "f25", model.companion, p0, calibrated,
                       rows, ok)


# ---------------------------------------------------------- the pipelines

def _rigid_counts(cat, variety_id, p):
    spec = cat.variety(variety_id)
    _require_good(spec, p)
    return _Counts(counting.count_projective(spec, p).count,
                   _schoen_rational_nodes(p), 1)


def _quotient_counts(cat, variety_id, p):
    """The Burnside orbit count, with the fixed line image and the fixed
    curve replaced by the conic bundles that the blowup inserts over them.
    The big resolution takes the 60 free node-pair images when the fifth
    roots of unity are rational, plus two nodes over each rational curve
    node when sqrt(-1) is rational."""
    spec = cat.variety(variety_id)
    _require_good(spec, p)
    if p % 5 == 4:
        def accepted(q):
            return is_prime(q) and q % 5 != 4 and q not in spec.bad_primes
        below = next((q for q in range(p - 1, 1, -1) if accepted(q)), None)
        above = next(q for q in itertools.count(p + 1) if accepted(q))
        near = ", ".join(str(q) for q in (below, above) if q)
        raise RefusalError(
            f"quotient assembly not validated for p = 4 mod 5 (node pairs "
            f"swapped by Frobenius): p = {p} refused; nearest accepted good "
            f"primes: {near}")
    sy = cat.variety("schoen_y")
    ep = cat.variety("e_plane")
    n_plain = counting.count_projective(sy, p).count
    n_twist = counting.count_twisted(sy, cat.involution("iota_y"), p).count
    e_count = counting.count_projective(ep, p).count
    e_nodes = len(singular_points(ep, p))
    base = ((n_plain + n_twist) // 2 - (p + 1) - e_count
            + (p + 1) * (p + 1) + (p + 1) * e_count)
    big = ((60 if p % 5 == 1 else 0)
           + (2 * e_nodes if kronecker(-1, p) == 1 else 0))
    return _Counts(base, big, 3 + big)


def _quotient_target(cat, nform, p):
    ap_e = lefschetz.elliptic_ap(cat.variety("e_plane"), p)
    return qexp.coefficient(nform, p) + qexp.tensor_ap(p, ap_e)


_RIGID = _Model(
    _rigid_counts, lambda cat, nform, p: qexp.coefficient(nform, p), None,
    "small", {"per_rational_node": "kronecker(D, p) * p",
              "rational_nodes": "125 if p = 1 mod 5 else 1"},
    resolved_n_p=False)
_QUOTIENT = _Model(
    _quotient_counts, _quotient_target, "e_plane",
    "big", {"per_rational_node": "p^2 + 2p if kronecker(D,p) = 1 else p^2",
            "base_classes": 3},
    resolved_n_p=True)
_MODELS = {"schoen_x": _RIGID, "schoen_y": _RIGID,
           "schoen_quotient": _QUOTIENT}


def match_rigid(variety_id, primes, calibration_prime, cat=None, nform=None):
    """Match the nodal quintic's H^3 traces against the level-25 form.

    Calibration solves 1 + (p+p^2) b2 + p^3 - N_p - c(D) = a_p at the
    calibration prime for an integer b2 over the discriminant candidates;
    the small-resolution correction c(D) adds kronecker(D,p) p per rational
    node.  b2 splits as 1 + (b2-1): the hyperplane class plus classes
    supported on the node web, rational exactly when p = 1 mod 5.
    """
    return _match(_RIGID, variety_id, primes, calibration_prime, cat, nform)


def match_quotient(primes, calibration_prime, cat=None, nform=None):
    """Match the quotient's H^3 traces against a_p(f25) + p a_p(E).

    Same calibration contract as the rigid match: the splitting
    discriminant of the exceptional quadrics and the number of
    Galois-gated invariant classes are fixed at one prime; every other row
    is then parameter free.  A row reports the resolved count as n_p.
    """
    return _match(_QUOTIENT, "schoen_quotient", primes, calibration_prime,
                  cat, nform)


def report_to_table(rep):
    """Flatten a MatchReport into the CSV trace table."""
    rows = tuple(lefschetz.TraceRow(r.p, r.n_p, r.b2, r.correction, r.t3,
                                    r.candidate_ap, r.equal)
                 for r in rep.rows)
    return lefschetz.TraceTable(rep.variety_id, rows)


def match_pipeline(variety_id, form, companion, primes, calibration_prime,
                   cat=None):
    if form != "f25":
        raise ValidationError(f"no matcher for form {form!r}")
    model = _MODELS.get(variety_id)
    if model is None:
        raise ValidationError(f"no match pipeline for {variety_id!r}")
    if model.companion is None and companion:
        raise ValidationError(f"{variety_id}: no companion factor expected")
    if model.companion is not None and companion not in (None, model.companion):
        raise ValidationError(f"unsupported companion {companion!r}")
    return _match(model, variety_id, primes, calibration_prime, cat, None)


# What match_quotient calibrates at p = 11, as the Betti count uses it; the
# Tier-1 tests check the two agree.  Taken as data, so that the Betti count
# makes point counts at its own prime only.
QUOTIENT_FROZEN = _Frozen(disc=5, gated=12)
QUOTIENT_FULL_B2 = 85         # b2 of the resolved quotient: chi 168, b3 4


def quotient_resolved_count(p, adjusted=False, cat=None):
    """Point count of the big resolution of the quotient, and its b2 at p,
    under the freeze of match_quotient at p = 11 (QUOTIENT_FROZEN).

    With adjusted=True the count is shifted by (85 - g)(p + p^2), modelling
    a prime where all 85 divisor classes are Frobenius invariant; the
    unadjusted count is the honest one.
    """
    cat = cat or load_catalog()
    c = _quotient_counts(cat, "schoen_quotient", p)
    row = _freeze(_QUOTIENT, QUOTIENT_FROZEN, p, c, None)
    shift = (QUOTIENT_FULL_B2 - row.b2) * (p + p * p) if adjusted else 0
    return row.n_p + shift, row.b2


def betti_report(p, chi, adjusted=False, cat=None):
    count, g = quotient_resolved_count(p, adjusted=adjusted, cat=cat)
    cands = lefschetz.solve_betti(count, p, chi)
    unique = len(cands) == 1
    congruence = p % 20 == 1
    if unique:
        note = "unique Betti pair"
    elif not cands:
        note = ("no admissible pair: part of H^2 is not Frobenius-invariant "
                "at this prime" if not congruence else "no admissible pair")
    else:
        note = f"{len(cands)} admissible pairs"
    return {"variety_id": "schoen_quotient", "p": p, "chi": chi,
            "adjusted": adjusted, "count": count,
            "full_splitting_congruence": congruence,
            "candidates": cands, "unique": unique, "note": note}


# ------------------------------------------------------------- manifests

def _strip_times(obj):
    if isinstance(obj, dict):
        return {k: _strip_times(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_times(v) for v in obj]
    return obj


def run_manifest(manifest, outdir=None):
    """Execute a reproduction manifest (dict or path to JSON).

    Returns (result dict, ok flag).  Results are deterministic except for
    wall_time fields, which are stripped from the summary document.
    """
    if isinstance(manifest, str):
        with open(manifest) as fh:
            manifest = json.load(fh)
    cat = load_catalog()
    results = []
    ok = True
    for op in manifest.get("operations", []):
        kind = op["op"]
        if kind == "count":
            rec = counting.count(cat.variety(op["variety"]), op["p"],
                                 op.get("degree", 1))
            results.append({"op": kind, "record": asdict(rec)})
        elif kind == "twisted_count":
            spec = cat.variety(op["variety"])
            phi = cat.involution(op["involution"])
            rec = counting.count_twisted(spec, phi, op["p"])
            results.append({"op": kind, "record": asdict(rec)})
        elif kind == "torus_count":
            rec = counting.count_torus(op["a"], op["t"], op["p"])
            results.append({"op": kind, "record": asdict(rec)})
        elif kind == "euler":
            moves = (lefschetz.quotient_ledger() if op.get("ledger") == "quotient"
                     else [lefschetz.LedgerMove(k, tuple(a)) for k, a in op["moves"]])
            res = lefschetz.euler_ledger(moves)
            out = {"op": kind, "final": res.final,
                   "checkpoints": list(res.checkpoints)}
            if "expect_final" in op and op["expect_final"] != res.final:
                out["failed"] = True
                ok = False
            results.append(out)
        elif kind == "betti":
            rep = betti_report(op["p"], op["chi"], op.get("adjusted", False),
                               cat=cat)
            if "expect_unique" in op and op["expect_unique"] != rep["unique"]:
                rep["failed"] = True
                ok = False
            if "expect" in op and op["expect"] != rep["candidates"]:
                rep["failed"] = True
                ok = False
            results.append({"op": kind, **rep})
        elif kind == "match":
            rep = match_pipeline(op["variety"], op.get("form", "f25"),
                                 op.get("companion"), op["primes"],
                                 op["calibration_prime"], cat=cat)
            if not rep.overall:
                ok = False
            results.append({"op": kind, **rep.to_json()})
        elif kind == "livne":
            if "traces1" in op:
                tr1 = {int(k): v for k, v in op["traces1"].items()}
                tr2 = {int(k): v for k, v in op["traces2"].items()}
                rep = livne.livne_compare(tr1, tr2, set(op["bad_primes"]),
                                          op["check_set"],
                                          op.get("dets_match_parity", True))
                if rep.status != livne.STATUS_OK:
                    ok = False
                results.append({"op": kind, "status": rep.status,
                                "detail": rep.detail})
            else:
                rep = livne.check_cover(set(op["bad_primes"]), op["check_set"])
                if not rep.complete:
                    ok = False
                results.append({"op": kind, "complete": rep.complete,
                                "missing": [list(m) for m in rep.missing],
                                "signatures": {str(p): list(s)
                                               for p, s in rep.signatures.items()}})
        else:
            raise ValidationError(f"unknown manifest op {kind!r}")
    doc = {"id": manifest.get("id", ""), "ok": ok,
           "results": _strip_times(results)}
    if outdir is not None:
        import os
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "manifest_result.json"), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return doc, ok


# ------------------------------------------------------------------- CLI

def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _cmd_catalog(args):
    cat = load_catalog(args.path)
    if args.id:
        from .catalog import _variety_to_json
        print(json.dumps(_variety_to_json(cat.variety(args.id)), indent=1,
                         sort_keys=True))
    else:
        for vid, v in sorted(cat.varieties.items()):
            print(f"{vid}: {v.ambient.kind}, dim {v.dimension}, "
                  f"bad primes {sorted(v.bad_primes)}")
        for iid, i in sorted(cat.involutions.items()):
            print(f"{iid}: involution on {i.variety_id}")
    return 0


def _cmd_count(args):
    cat = load_catalog()
    rec = counting.count(cat.variety(args.variety), args.p, args.degree)
    if args.out:
        with open(args.out, "a") as fh:
            counting.write_records([rec], fh)
    print(json.dumps(asdict(rec), sort_keys=True))
    return 0


def _cmd_twisted(args):
    cat = load_catalog()
    rec = counting.count_twisted(cat.variety(args.variety),
                                 cat.involution(args.involution), args.p)
    if args.out:
        with open(args.out, "a") as fh:
            counting.write_records([rec], fh)
    print(json.dumps(asdict(rec), sort_keys=True))
    return 0


def _cmd_trace(args):
    cat = load_catalog()
    spec = cat.variety(args.variety)
    _require_good(spec, args.p)
    rec = counting.count_projective(spec, args.p)
    if args.variety in ("schoen_x", "schoen_y"):
        n_rat = _schoen_rational_nodes(args.p)
    else:
        n_rat = len(singular_points(spec, args.p))
    corr = lefschetz.node_correction(spec, args.p, args.resolution,
                                     args.splitting_discriminant,
                                     n_rational=n_rat)
    t3 = lefschetz.trace_h3(rec.count, args.p, args.b2, corr)
    print(json.dumps({"p": args.p, "N_p": rec.count, "b2": args.b2,
                      "correction": corr, "t3": t3}, sort_keys=True))
    return 0


def _cmd_betti(args):
    if args.count is not None:
        cands = lefschetz.solve_betti(args.count, args.p, args.chi)
        doc = {"p": args.p, "chi": args.chi, "count": args.count,
               "candidates": cands, "unique": len(cands) == 1}
    else:
        if args.variety != "schoen_quotient":
            raise ValidationError("betti: pass --count or use schoen_quotient")
        doc = betti_report(args.p, args.chi, args.adjusted)
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


def _cmd_euler(args):
    if args.moves:
        moves = [lefschetz.LedgerMove(k, tuple(a))
                 for k, a in json.loads(args.moves)]
    else:
        moves = lefschetz.quotient_ledger()
    res = lefschetz.euler_ledger(moves)
    print(json.dumps({"final": res.final,
                      "checkpoints": list(res.checkpoints)}))
    return 0


def _cmd_eta(args):
    if args.form:
        if args.form != "f25":
            raise ValidationError(f"unknown form {args.form!r}")
        s = qexp.f25(args.terms)
        coeffs = {n: qexp.coefficient(s, n) for n in range(1, args.terms + 1)}
        print(json.dumps(coeffs, sort_keys=False))
    else:
        s = qexp.eta(args.m, args.terms)
        print(json.dumps({"lead_num": s.lead_num, "coeffs": list(s.coeffs)}))
    return 0


_MAX_AP_P = 10 ** 6              # largest p for `ap --form f25`


def _cmd_ap(args):
    if args.form:
        if args.form != "f25":
            raise ValidationError(f"unknown form {args.form!r}")
        if not is_prime(args.p):
            raise ValidationError(f"{args.p} is not prime")
        if args.p > _MAX_AP_P:
            raise RefusalError(f"f25 a_p expands p + 1 coefficients; p = "
                               f"{args.p} is over the bound {_MAX_AP_P}")
        s = qexp.f25(args.p + 1)
        print(json.dumps({"form": "f25", "p": args.p,
                          "ap": qexp.coefficient(s, args.p)}))
    else:
        cat = load_catalog()
        ap = lefschetz.elliptic_ap(cat.variety(args.variety), args.p,
                                   args.degree)
        print(json.dumps({"variety": args.variety, "p": args.p,
                          "degree": args.degree, "ap": ap}))
    return 0


def _read_traces_csv(path):
    import csv as _csv
    out = {}
    with open(path) as fh:
        rd = _csv.reader(fh)
        header = next(rd)
        if header != ["p", "trace"]:
            raise ValidationError(f"traces file needs header p,trace, got {header}")
        for rec in rd:
            if rec:
                out[int(rec[0])] = int(rec[1])
    return out


def _cmd_livne(args):
    s = set(_int_list(args.bad_primes))
    t_set = _int_list(args.check_set)
    if args.traces1:
        if not args.traces2:
            raise ValidationError("--traces1 needs --traces2")
        tr1 = _read_traces_csv(args.traces1)
        tr2 = _read_traces_csv(args.traces2)
        rep = livne.livne_compare(tr1, tr2, s, t_set,
                                  not args.dets_differ)
        print(json.dumps({"status": rep.status, "detail": rep.detail}))
        return 0 if rep.status == livne.STATUS_OK else 3
    rep = livne.check_cover(s, t_set)
    print(json.dumps({"complete": rep.complete,
                      "missing": [list(m) for m in rep.missing]}))
    return 0 if rep.complete else 3


def _cmd_match(args):
    rep = match_pipeline(args.variety, args.form, args.companion,
                         _int_list(args.primes), args.calibration_prime)
    doc = rep.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            lefschetz.write_trace_table(report_to_table(rep), fh)
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0 if rep.overall else 3


def _cmd_run(args):
    doc, ok = run_manifest(args.manifest, args.out)
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0 if ok else 3


def build_parser():
    ap = argparse.ArgumentParser(
        prog="frobtrace",
        description="point counts, Frobenius traces and modularity checks "
                    "for the variety catalog")
    sub = ap.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("catalog", help="list or show catalog entries")
    q.add_argument("--id")
    q.add_argument("--path")
    q.set_defaults(fn=_cmd_catalog)

    q = sub.add_parser("count", help="point count over F_p")
    q.add_argument("--variety", required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--degree", type=int, default=1)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_count)

    q = sub.add_parser("twisted-count", help="twisted point count")
    q.add_argument("--variety", required=True)
    q.add_argument("--involution", required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_twisted)

    q = sub.add_parser("trace", help="H^3 Frobenius trace from a count")
    q.add_argument("--variety", required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--b2", type=int, required=True)
    q.add_argument("--resolution", choices=("small", "big"), default="small")
    q.add_argument("--splitting-discriminant", type=int, default=5)
    q.set_defaults(fn=_cmd_trace)

    q = sub.add_parser("betti", help="solve for Betti numbers from a count")
    q.add_argument("--variety", default="schoen_quotient")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--chi", type=int, required=True)
    q.add_argument("--count", type=int)
    q.add_argument("--adjusted", action="store_true")
    q.set_defaults(fn=_cmd_betti)

    q = sub.add_parser("euler", help="fold an Euler characteristic ledger")
    q.add_argument("--moves", help="JSON list of [kind, [args]] pairs")
    q.set_defaults(fn=_cmd_euler)

    q = sub.add_parser("eta", help="eta product q-expansions")
    q.add_argument("--m", type=int, default=1)
    q.add_argument("--terms", type=int, default=50)
    q.add_argument("--form")
    q.set_defaults(fn=_cmd_eta)

    q = sub.add_parser("ap", help="Frobenius trace of a form or curve")
    q.add_argument("--form")
    q.add_argument("--variety", default="e_plane")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--degree", type=int, default=1)
    q.set_defaults(fn=_cmd_ap)

    q = sub.add_parser("livne", help="signature cover check / trace compare")
    q.add_argument("--bad-primes", required=True)
    q.add_argument("--check-set", required=True)
    q.add_argument("--traces1")
    q.add_argument("--traces2")
    q.add_argument("--dets-differ", action="store_true")
    q.set_defaults(fn=_cmd_livne)

    q = sub.add_parser("match", help="trace vs newform match pipeline")
    q.add_argument("--variety", required=True)
    q.add_argument("--form", default="f25")
    q.add_argument("--companion")
    q.add_argument("--primes", required=True)
    q.add_argument("--calibration-prime", type=int, required=True)
    q.add_argument("--out")
    q.add_argument("--csv-out")
    q.set_defaults(fn=_cmd_match)

    q = sub.add_parser("run", help="execute a reproduction manifest")
    q.add_argument("manifest")
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_run)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except RefusalError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FrobtraceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
