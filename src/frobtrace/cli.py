"""Match pipelines, reproduction manifests, and the command line interface.

The pipelines assemble counts into H^3 traces and compare them against
newform coefficients.  The resolution bookkeeping has one declared
parameter and one free one.  The splitting discriminant D of the node
quadrics is read from the variety's known block in the catalog.  The
number of Galois-gated divisor classes is calibrated at a single prime
and then frozen for all other rows, which is what makes the agreement at
the remaining primes a check rather than a fit.  Each pipeline is a model
(its counts, rational nodes, base b2 and companion a_p at a prime); one
calibration and one freeze serve the rigid match, the quotient match and
the Betti count, whose gated classes are those the quotient calibration
gives at p = 11.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import operator
import sys
from dataclasses import dataclass, asdict
from typing import Callable, NamedTuple

from . import counting, lefschetz, livne, qexp
from .catalog import _require_good, load_catalog, singular_points
from .errors import FrobtraceError, RefusalError, ValidationError
from .ffield import is_prime, kronecker, require_prime


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
        """The report as JSON data: every field, each row a MatchRow dict."""
        return asdict(self)


def _schoen_rational_nodes(p):
    """Rational nodes of the nodal quintic: the 125 node coordinates are
    fifth roots of unity up to scaling, so all of them are rational exactly
    when p = 1 mod 5 and only the all-ones node is otherwise."""
    return 125 if p % 5 == 1 else 1


# ------------------------------------------------- calibrate, then freeze

class _Counts(NamedTuple):
    """What a pipeline knows at one good prime before calibration."""
    count: int      # point count before the nodes are resolved
    nodes: int      # F_p-rational nodes taking the resolution
    b2: int         # H^2 classes that are Frobenius invariant at every prime
    companion_ap: int = 0   # of the companion curve: the target trace is
                            # a_p(form) + p companion_ap


class _Model(NamedTuple):
    counts: Callable        # (cat, variety_id, p) -> _Counts
    companion: str | None
    resolution: str         # "small" or "big", as node_correction takes it
    described: dict         # the per-node terms of calibrated["correction"]
    resolved_n_p: bool      # rows report the resolved count as n_p


def _freeze(model, disc, gated, p, c, target):
    """The MatchRow at p under the splitting discriminant disc and gated
    divisor classes, Frobenius invariant only at p = 1 mod 5."""
    corr = lefschetz.node_correction(p, model.resolution, disc, c.nodes)
    b2 = c.b2 + (gated if p % 5 == 1 else 0)
    t3 = lefschetz.trace_h3(c.count, p, b2, corr)
    n_p = c.count + corr if model.resolved_n_p else c.count
    return MatchRow(p, n_p, corr, b2, t3, target, t3 == target)


def _calibrate(model, disc, p0, c, target):
    """The number of gated classes whose freeze under the declared
    discriminant disc gives the target trace at p0.  Each H^2 class adds
    p0 + p0^2 to t3."""
    step = p0 + p0 * p0
    row = _freeze(model, disc, 0, p0, c, target)
    gated, rem = divmod(target - row.t3, step)
    if rem:
        why = f"b2 = {row.b2 * step + target - row.t3}/{step} is not an integer"
    elif gated < 0:
        why = f"b2 = {row.b2 + gated} is below the base {row.b2}"
    elif gated and p0 % 5 != 1:
        why = f"{gated} gated classes at p={p0}, which is not 1 mod 5"
    else:
        return gated
    raise ValidationError(f"calibration at p={p0} under the declared D={disc} "
                          f"admits no integer solution: {why}")


def _declared(spec, key="splitting_discriminant", hint=""):
    """The integer that spec's known block declares under key, by default
    the splitting discriminant D."""
    value = (spec.known or {}).get(key)
    if type(value) is not int:
        raise ValidationError(f"{spec.id} declares no integer known."
                              f"{key} ({value!r}){hint}")
    return value


def _match(model, variety_id, primes, calibration_prime, cat):
    """Calibrate at one prime, freeze, and compare every row's trace with
    its target; the calibration row itself does not count as a check, and a
    match with no other row is no match."""
    p0 = calibration_prime
    try:
        primes = set(primes) | {p0}
    except TypeError:
        raise ValidationError(f"primes {primes!r} is not a list") from None
    for p in primes:
        require_prime(p)
    gated_rows = sorted({p for p in primes if p % 5 == 1})
    if p0 % 5 != 1 and gated_rows:
        raise RefusalError(
            f"calibration at p={p0} cannot determine the gated divisor "
            f"classes, which are Frobenius invariant only at p = 1 mod 5, "
            f"so the rows at {gated_rows} cannot be checked; use a "
            f"calibration prime = 1 mod 5, such as 11")
    cat = cat or load_catalog()
    disc = _declared(cat.variety(variety_id))
    primes = sorted(primes)
    nform = qexp.f25(max(primes))
    counts = {p: model.counts(cat, variety_id, p) for p in primes}
    targets = {p: qexp.coefficient(nform, p) + p * counts[p].companion_ap
               for p in primes}
    gated = _calibrate(model, disc, p0, counts[p0], targets[p0])
    calibrated = {"b2": counts[p0].b2 + gated, "correction": {
        "resolution": model.resolution,
        "splitting_discriminant": disc,
        **model.described,
        "gated_classes": gated}}
    rows = tuple(_freeze(model, disc, gated, p, counts[p], targets[p])
                 for p in primes)
    checks = [r.equal for r in rows if r.p != p0]
    ok = bool(checks) and all(checks)
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
    node when sqrt(-1) is rational.  The fixed curve's points, nodes and
    companion a_p are read from its declared normalization, not scanned."""
    spec = cat.variety(variety_id)
    _require_good(spec, p)
    if p % 5 == 4:
        def accepted(q):
            return is_prime(q) and q % 5 != 4 and q not in spec.bad_primes
        # p is prime here, so p >= 19 and 17 lies below it
        below = next(q for q in range(p - 1, 1, -1) if accepted(q))
        above = next(q for q in itertools.count(p + 1) if accepted(q))
        raise RefusalError(
            f"quotient assembly not validated for p = 4 mod 5 (node pairs "
            f"swapped by Frobenius): p = {p} refused; nearest accepted good "
            f"primes: {below}, {above}")
    sy = cat.variety("schoen_y")
    ep = cat.variety("e_plane")
    n_plain = counting.count_projective(sy, p).count
    n_twist = counting.count_twisted(sy, cat.involution("iota_y"), p).count
    e = lefschetz.declared_curve(ep, p)
    base = ((n_plain + n_twist) // 2 - (p + 1) - e.points
            + (p + 1) * (p + 1) + (p + 1) * e.points)
    big = ((60 if p % 5 == 1 else 0)
           + (2 * e.nodes if kronecker(-1, p) == 1 else 0))
    return _Counts(base, big, 3 + big, e.ap)


_RIGID = _Model(
    _rigid_counts, None,
    "small", {"per_rational_node": "kronecker(D, p) * p",
              "rational_nodes": "125 if p = 1 mod 5 else 1"},
    resolved_n_p=False)
_QUOTIENT = _Model(
    _quotient_counts, "e_plane",
    "big", {"per_rational_node": "p^2 + 2p if kronecker(D,p) = 1 else p^2",
            "base_classes": 3},
    resolved_n_p=True)
_MODELS = {"schoen_x": _RIGID, "schoen_y": _RIGID,
           "schoen_quotient": _QUOTIENT}


def match_rigid(variety_id, primes, calibration_prime, cat=None):
    """Match the nodal quintic's H^3 traces against the level-25 form.

    Calibration solves 1 + (p+p^2) b2 + p^3 - N_p - c(D) = a_p at the
    calibration prime for an integer b2, under the splitting discriminant D
    that the variety declares; the small-resolution correction c(D) adds
    kronecker(D,p) p per rational node.  b2 splits as 1 + (b2-1): the
    hyperplane class plus classes supported on the node web, rational
    exactly when p = 1 mod 5.
    """
    rigid = sorted(v for v, m in _MODELS.items() if m is _RIGID)
    if variety_id not in rigid:
        raise ValidationError(f"no match pipeline for {variety_id!r} in "
                              f"match_rigid; use one of {rigid}")
    return _match(_RIGID, variety_id, primes, calibration_prime, cat)


def match_quotient(primes, calibration_prime, cat=None):
    """Match the quotient's H^3 traces against a_p(f25) + p a_p(E).

    Same calibration contract as the rigid match: the splitting
    discriminant of the exceptional quadrics is declared by schoen_quotient
    and the number of Galois-gated invariant classes is fixed at one prime;
    every other row is then parameter free.  A row reports the resolved
    count as n_p.
    """
    return _match(_QUOTIENT, "schoen_quotient", primes, calibration_prime,
                  cat)


def match_pipeline(variety_id, form, companion, primes, calibration_prime,
                   cat=None):
    if form != "f25":
        raise ValidationError(f"no matcher for form {form!r}")
    model = _MODELS.get(variety_id) if isinstance(variety_id, str) else None
    if model is None:
        raise ValidationError(f"no match pipeline for {variety_id!r}")
    if model.companion is None and companion:
        raise ValidationError(f"{variety_id}: no companion factor expected")
    if model.companion is not None and companion not in (None, model.companion):
        raise ValidationError(f"unsupported companion {companion!r}")
    return _match(model, variety_id, primes, calibration_prime, cat)


# The gated classes match_quotient calibrates at p = 11, as the Betti count
# uses them; the Tier-1 tests check the two agree.  Taken as data, so that
# the Betti count makes point counts at its own prime only.
QUOTIENT_FROZEN = 12


def quotient_resolved_count(p, adjusted=False, cat=None):
    """Point count of the big resolution of the quotient, and its b2 at p,
    under the declared splitting discriminant and the gated classes of
    match_quotient at p = 11 (QUOTIENT_FROZEN).

    With adjusted=True the count is shifted by (85 - g)(p + p^2), modelling
    a prime where all 85 divisor classes (schoen_quotient's resolved_b2)
    are Frobenius invariant; the unadjusted count is the honest one.
    """
    require_prime(p)
    cat = cat or load_catalog()
    spec = cat.variety("schoen_quotient")
    disc = _declared(spec)
    full = _declared(spec, "resolved_b2") if adjusted else None
    c = _quotient_counts(cat, "schoen_quotient", p)
    row = _freeze(_QUOTIENT, disc, QUOTIENT_FROZEN, p, c, None)
    shift = (full - row.b2) * (p + p * p) if adjusted else 0
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


class _Op(dict):
    """A manifest operation, whose missing fields are ValidationErrors."""

    def __missing__(self, key):
        raise ValidationError(f"manifest op {self.get('op')!r} has no "
                              f"field {key!r}")

    def of(self, field, kind, default=None):
        """The field, or default, if of type kind: JSON's true is no
        integer, and its "false" no boolean."""
        value = self.get(field, default)
        if type(value) is not kind:
            raise ValidationError(f"{field} {value!r} has the wrong type")
        return value


def _typed(convert, value, field):
    """convert(value), or a ValidationError naming the field when value has
    the wrong type for it: a field from outside, in JSON data."""
    try:
        return convert(value)
    except (AttributeError, TypeError, ValueError):
        raise ValidationError(f"{field} {value!r} has the wrong type") from None


def _integer(value):
    """value as an int, or a TypeError: JSON's true is no integer."""
    if type(value) is bool:
        raise TypeError
    return operator.index(value)


def _ledger(moves):
    """LedgerMoves from [[kind, [integer args]], ...]."""
    return [lefschetz.LedgerMove(k, tuple(map(_integer, a))) for k, a in moves]


def _traces(doc):
    """{p: trace} from an object of integer traces keyed by primes."""
    return {int(k): _integer(v) for k, v in doc.items()}


# Each handler takes an _Op and the catalog, which the match and Betti
# handlers load when it is None, and returns the op's result fields and its
# verdict.  run_manifest and the CLI commands both run them.

def _op_count(op, cat):
    rec = counting.count(cat.variety(op["variety"]), op["p"],
                         op.of("degree", int, 1))
    return {"record": asdict(rec)}, True


def _op_twisted_count(op, cat):
    rec = counting.count_twisted(cat.variety(op["variety"]),
                                 cat.involution(op["involution"]), op["p"])
    return {"record": asdict(rec)}, True


def _op_torus_count(op, cat):
    rec = counting.count_torus(op["a"], op["t"], op["p"])
    return {"record": asdict(rec)}, True


def _op_euler(op, cat):
    moves = (lefschetz.quotient_ledger() if op.get("ledger") == "quotient"
             else _typed(_ledger, op["moves"], "moves"))
    res = lefschetz.euler_ledger(moves)
    out = {"final": res.final, "checkpoints": list(res.checkpoints)}
    if "expect_final" in op and op.of("expect_final", int) != res.final:
        out["failed"] = True
    return out, "failed" not in out


def _op_betti(op, cat):
    if op.get("variety", "schoen_quotient") != "schoen_quotient":
        raise ValidationError(f"betti: no Betti count for variety "
                              f"{op['variety']!r}; use schoen_quotient")
    want = {k: op.of(f, t) for k, f, t in (
        ("unique", "expect_unique", bool),
        ("candidates", "expect", list)) if f in op}
    rep = betti_report(op["p"], op["chi"], op.of("adjusted", bool, False),
                       cat=cat)
    if any(rep[k] != v for k, v in want.items()):
        rep["failed"] = True
    return rep, "failed" not in rep


def _op_match(op, cat):
    rep = match_pipeline(op["variety"], op.get("form", "f25"),
                         op.get("companion"), op["primes"],
                         op["calibration_prime"], cat=cat)
    return rep.to_json(), rep.overall


def _op_livne(op, cat):
    bad = _typed(set, op["bad_primes"], "bad_primes")
    t_set = _typed(lambda v: sorted(map(_integer, v)), op["check_set"],
                   "check_set")
    if "traces1" in op or "traces2" in op:
        tr1, tr2 = (_typed(_traces, op[k], k) for k in ("traces1", "traces2"))
        rep = livne.livne_compare(tr1, tr2, bad, t_set,
                                  op.of("dets_match_parity", bool, True))
        return ({"status": rep.status, "detail": rep.detail},
                rep.status == livne.STATUS_OK)
    rep = livne.check_cover(bad, t_set)
    return {"complete": rep.complete,
            "missing": [list(m) for m in rep.missing],
            "signatures": {str(p): list(s) for p, s in rep.signatures.items()}
            }, rep.complete


# op -> (the fields it reads besides "op", its handler); run_manifest
# refuses an op with any other field before any op runs
_OPS = {
    "count": (("variety", "p", "degree"), _op_count),
    "twisted_count": (("variety", "involution", "p"), _op_twisted_count),
    "torus_count": (("a", "t", "p"), _op_torus_count),
    "euler": (("ledger", "moves", "expect_final"), _op_euler),
    "betti": (("variety", "p", "chi", "expect_unique", "expect", "adjusted"),
              _op_betti),
    "match": (("variety", "form", "companion", "primes", "calibration_prime"),
              _op_match),
    "livne": (("bad_primes", "check_set", "traces1", "traces2",
               "dets_match_parity"), _op_livne),
}


def run_manifest(manifest, outdir=None):
    """Execute a reproduction manifest (dict or path to JSON).

    Returns (result dict, ok flag).  Results are deterministic except for
    wall_time fields, which are stripped from the summary document.
    """
    if isinstance(manifest, str):
        with open(manifest) as fh:
            manifest = json.load(fh)
    ops = manifest.get("operations", []) if isinstance(manifest, dict) else None
    if not isinstance(ops, list) or not all(isinstance(op, dict) for op in ops):
        raise ValidationError("a manifest is an object whose \"operations\" "
                              "is a list of op objects")
    ops = [_Op(op) for op in ops]
    for op in ops:
        kind = op["op"]
        if not isinstance(kind, str) or kind not in _OPS:
            raise ValidationError(f"unknown manifest op {kind!r}")
        unread = sorted(set(op) - {"op", *_OPS[kind][0]})
        if unread:
            raise ValidationError(f"manifest op {kind!r} does not read "
                                  f"field {unread[0]!r}")
    cat = load_catalog()
    results, ok = [], True
    for op in ops:
        fields, verdict = _OPS[op["op"]][1](op, cat)
        results.append({"op": op["op"], **fields})
        ok = ok and verdict
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

def _int_list(text, flag):
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"{flag}: {text!r} is not a comma-separated "
                              f"list of integers") from None


def _cmd_catalog(args):
    cat = load_catalog(args.path)
    if args.id:
        from .catalog import _catalog_doc      # the entry as stored
        doc = {v["id"]: v for v in _catalog_doc(args.path)["varieties"]}
        print(json.dumps(doc[cat.variety(args.id).id], indent=1, sort_keys=True))
    else:
        for vid, v in sorted(cat.varieties.items()):
            print(f"{vid}: {v.ambient.kind}, dim {v.dimension}, "
                  f"bad primes {sorted(v.bad_primes)}")
        for iid, i in sorted(cat.involutions.items()):
            print(f"{iid}: involution on {i.variety_id}")
    return 0


def _cmd_count(args):
    cat = load_catalog()
    if args.involution is None:
        rec = _op_count(_Op(op="count", variety=args.variety, p=args.p,
                            degree=args.degree), cat)[0]["record"]
    else:
        rec = _op_twisted_count(_Op(op="twisted_count", variety=args.variety,
                                    involution=args.involution, p=args.p),
                                cat)[0]["record"]
    if args.out:
        with open(args.out, "a") as fh:
            counting.write_records([counting.CountRecord(**rec)], fh)
    print(json.dumps(rec, sort_keys=True))
    return 0


def _cmd_trace(args):
    cat = load_catalog()
    spec = cat.variety(args.variety)
    _require_good(spec, args.p)
    rec = counting.count_projective(spec, args.p)
    if _MODELS.get(args.variety) is _RIGID:
        n_rat = _schoen_rational_nodes(args.p)
    else:
        n_rat = len(singular_points(spec, args.p))
    disc = args.splitting_discriminant
    if disc is None:
        disc = _declared(spec, hint="; pass --splitting-discriminant")
    corr = lefschetz.node_correction(args.p, args.resolution, disc, n_rat)
    t3 = lefschetz.trace_h3(rec.count, args.p, args.b2, corr)
    print(json.dumps({"p": args.p, "N_p": rec.count, "b2": args.b2,
                      "correction": corr, "t3": t3}, sort_keys=True))
    return 0


def _cmd_betti(args):
    if args.count is not None:
        unread = [flag for flag, given in (
            ("--variety", args.variety is not None),
            ("--adjusted", args.adjusted)) if given]
        if unread:
            raise ValidationError(
                f"betti --count reads no {' or '.join(unread)}; it solves "
                "for the given count alone")
        cands = lefschetz.solve_betti(args.count, args.p, args.chi)
        doc = {"p": args.p, "chi": args.chi, "count": args.count,
               "candidates": cands, "unique": len(cands) == 1}
    else:
        op = _Op(op="betti", p=args.p, chi=args.chi, adjusted=args.adjusted)
        if args.variety is not None:         # else _op_betti's default
            op["variety"] = args.variety
        doc = _op_betti(op, None)[0]
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


def _cmd_euler(args):
    op = _Op(op="euler", ledger="quotient")
    if args.moves:
        op = _Op(op="euler", moves=json.loads(args.moves))
        _typed(_ledger, op["moves"], "--moves")     # so errors name the flag
    print(json.dumps(_op_euler(op, None)[0]))
    return 0


_MAX_TERMS = 10 ** 6             # coefficients `eta` or `ap --form` may expand


def _require_terms(n, what):
    """Refuse, before any expansion, a command that expands n coefficients
    of a q-series when n is over _MAX_TERMS."""
    if n > _MAX_TERMS:
        raise RefusalError(f"{what} expands {n} coefficients, over the bound "
                           f"{_MAX_TERMS}")


def _cmd_eta(args):
    if args.form and args.form != "f25":
        raise ValidationError(f"unknown form {args.form!r}")
    _require_terms(args.terms, "eta")
    if args.form:
        s = qexp.f25(args.terms)
        coeffs = {n: qexp.coefficient(s, n) for n in range(1, args.terms + 1)}
        print(json.dumps(coeffs, sort_keys=False))
    else:
        s = qexp.eta(args.m, args.terms)
        print(json.dumps({"lead_num": s.lead_num, "coeffs": list(s.coeffs)}))
    return 0


def _cmd_ap(args):
    if args.form:
        if args.form != "f25":
            raise ValidationError(f"unknown form {args.form!r}")
        if args.degree != 1:
            raise ValidationError("ap --form reads no --degree other than 1; "
                                  "it prints the coefficient a_p")
        require_prime(args.p)
        _require_terms(args.p + 1, f"f25 a_p at p = {args.p}")
        s = qexp.f25(args.p + 1)
        doc = {"form": "f25", "p": args.p, "ap": qexp.coefficient(s, args.p)}
    else:
        spec = load_catalog().variety(args.variety)
        doc = {"variety": args.variety, "p": args.p, "degree": args.degree,
               "ap": lefschetz.elliptic_ap(spec, args.p, args.degree)}
    print(json.dumps(doc))
    return 0


def _read_traces_csv(path):
    out = {}
    with open(path) as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header != ["p", "trace"]:
            raise ValidationError(f"traces file needs header p,trace, got {header}")
        for rec in rd:
            if rec:
                try:
                    p, trace = (int(x) for x in rec)
                except ValueError:
                    raise ValidationError(f"{path}: row {','.join(rec)!r} is "
                                          f"not an integer pair p,trace") from None
                if p in out:
                    raise ValidationError(f"{path}: p={p} appears twice")
                out[p] = trace
    return out


def _cmd_livne(args):
    op = _Op(op="livne", bad_primes=_int_list(args.bad_primes, "--bad-primes"),
             check_set=_int_list(args.check_set, "--check-set"))
    if (args.traces1 is None) != (args.traces2 is None):
        given, missing = (("--traces1", "--traces2") if args.traces2 is None
                          else ("--traces2", "--traces1"))
        raise ValidationError(f"{given} needs {missing}")
    if args.traces1 is not None:
        op.update(traces1=_read_traces_csv(args.traces1),
                  traces2=_read_traces_csv(args.traces2),
                  dets_match_parity=not args.dets_differ)
    doc, ok = _op_livne(op, None)
    doc.pop("signatures", None)             # a cover check prints none
    print(json.dumps(doc))
    return 0 if ok else 3


def _cmd_match(args):
    doc, ok = _op_match(_Op(op="match", variety=args.variety,
                            form=args.form, companion=args.companion,
                            primes=_int_list(args.primes, "--primes"),
                            calibration_prime=args.calibration_prime), None)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["p", "N_p", "b2", "correction", "t3", "candidate_ap",
                        "match"])
            w.writerows([*map(r.get, ("p", "n_p", "b2", "correction", "t3",
                                      "candidate_ap")),
                         "true" if r["equal"] else "false"] for r in doc["rows"])
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0 if ok else 3


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
    q.set_defaults(fn=_cmd_count, involution=None)

    q = sub.add_parser("twisted-count", help="twisted point count")
    q.add_argument("--variety", required=True)
    q.add_argument("--involution", required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--out")
    q.set_defaults(fn=_cmd_count)

    q = sub.add_parser("trace", help="H^3 Frobenius trace from a count")
    q.add_argument("--variety", required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--b2", type=int, required=True)
    q.add_argument("--resolution", choices=("small", "big"), default="small")
    q.add_argument("--splitting-discriminant", type=int,
                   help="D of the node quadrics; default the declared one")
    q.set_defaults(fn=_cmd_trace)

    q = sub.add_parser("betti", help="solve for Betti numbers from a count")
    q.add_argument("--variety", help="schoen_quotient unless --count")
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
    except (FrobtraceError, OSError, json.JSONDecodeError) as e:   # bad input
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
