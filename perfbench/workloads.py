"""The four benchmark workloads and the pinned-output check.

Each workload is a fixed list of operations on the public API of
``frobtrace``.  The inputs come from the catalog and the paper; the order
seed only permutes the order of the operations (after any operation the
others depend on), so that order-dependent warm state shows.  Every operation's
output is compared with the value captured at commit 93f9727; a
mismatch or an exception counts as a failed operation and the workload
goes on with the next one.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

from frobtrace import cli, counting, lefschetz, livne, qexp
from frobtrace.ffield import is_prime

ROOT = Path(__file__).resolve().parent.parent
PINNED_DIR = Path(__file__).resolve().parent / "pinned"

# "full" is what the benchmark measures; "smoke" runs the same code paths on
# inputs small enough for the benchmark's own tests.
SIZES = {
    "full": {
        "betti_manifest": "manifests/betti_421.json",
        "sweep_max": 211,
        "f25_terms": 6000,
        "cover_bound": 5000,
        "dense": {"hm_quintic": 41, "consani_scholten": 37, "weighted": 13,
                  "ext": 31, "elliptic_ext": 11, "torus": 41,
                  "double_cover": 101},
    },
    "smoke": {
        "betti_manifest": {"id": "betti-smoke", "operations": [
            {"op": "betti", "variety": "schoen_quotient", "p": 41,
             "chi": 168}]},
        "sweep_max": 31,
        "f25_terms": 500,
        "cover_bound": 5000,
        "dense": {"hm_quintic": 7, "consani_scholten": 7, "weighted": 7,
                  "ext": 7, "elliptic_ext": 7, "torus": 11,
                  "double_cover": 11},
    },
}

CALIBRATION_PRIME = 11
LIVNE_S = (2, 5)
LIVNE_T = (3, 7, 11, 13, 17, 29, 31)
COVER_SETS = ((2, 5), (2, 3, 5), (2, 3, 5, 7), (2, 3, 5, 7, 11, 13))


class Op(NamedTuple):
    key: str
    call: Callable[[dict], object]   # takes the workload's shared context


def primes_upto(lo, hi):
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def record_json(rec):
    """A CountRecord without its timing and chunking, which may change."""
    return {"variety_id": rec.variety_id, "p": rec.p,
            "field_degree": rec.field_degree, "twist_id": rec.twist_id,
            "count": rec.count}


def cover_json(rep):
    return {"complete": rep.complete,
            "missing": [list(m) for m in rep.missing],
            "signatures": {str(p): list(s) for p, s in rep.signatures.items()}}


def series_summary(s):
    """a_p at every prime the series reaches, and a checksum of all its
    coefficients."""
    first = s.lead_num // 24                    # f25 starts at q^1
    digest = hashlib.sha256(",".join(map(str, s.coeffs)).encode()).hexdigest()
    return {"lead_num": s.lead_num, "terms": len(s.coeffs), "sha256": digest,
            "ap": {str(p): s.coeffs[p - first]
                   for p in primes_upto(first, first + len(s.coeffs) - 1)}}


def _betti421(size, cat, outdir):
    manifest = size["betti_manifest"]
    if isinstance(manifest, str):
        manifest = str(ROOT / manifest)
    result = Path(outdir) / "manifest_result.json"

    def run(ctx):
        result.unlink(missing_ok=True)
        _, ok = cli.run_manifest(manifest, str(outdir))
        return {"ok": ok, "manifest_result.json": result.read_bytes().decode()}

    return [Op("run_manifest", run)], 1


def _match_sweep(size, cat, outdir):
    rigid = [p for p in primes_upto(3, size["sweep_max"])
             if p not in cat.variety("schoen_x").bad_primes]
    quot = [p for p in rigid if p % 5 != 4
            and p not in cat.variety("schoen_quotient").bad_primes]
    ops = [
        Op("match_rigid", lambda ctx: cli.match_rigid(
            "schoen_x", rigid, CALIBRATION_PRIME, cat=cat).to_json()),
        Op("match_quotient", lambda ctx: cli.match_quotient(
            quot, CALIBRATION_PRIME, cat=cat).to_json()),
        Op("check_cover", lambda ctx: cover_json(
            livne.check_cover(set(LIVNE_S), list(LIVNE_T)))),
    ]
    return ops, 0


def _newform(size, cat, outdir):
    n = size["f25_terms"]

    def expand(ctx):
        ctx["f25"] = qexp.f25(n)
        return series_summary(ctx["f25"])

    # p = 5 divides the level, where neither the Hasse bound test nor the
    # Hecke relation a_{p^2} = a_p^2 - p^3 applies.
    hasse = [p for p in primes_upto(2, n) if p != 5]
    ops = [Op("f25", expand),
           Op("hasse_check", lambda ctx: qexp.hasse_check(ctx["f25"], 4, hasse))]
    for p in primes_upto(2, n):
        if p * p <= n and p != 5:
            ops.append(Op(f"hecke_check:{p}", lambda ctx, p=p:
                          qexp.hecke_check(ctx["f25"], 4, p)))
    for s in COVER_SETS:
        ops.append(Op("find_cover_set:" + ",".join(map(str, s)), lambda ctx, s=s:
                      livne.find_cover_set(set(s), size["cover_bound"])))
    return ops, 1


def _dense_sweep(size, cat, outdir):
    d = size["dense"]
    v = cat.variety
    known = v("hulek_verrill").known
    calls = [
        (f"count_projective:hm_quintic:{d['hm_quintic']}", lambda: record_json(
            counting.count_projective(v("hm_quintic"), d["hm_quintic"]))),
        (f"count_projective:consani_scholten:{d['consani_scholten']}",
         lambda: record_json(counting.count_projective(
             v("consani_scholten"), d["consani_scholten"]))),
        (f"count_weighted:schoen_quotient:{d['weighted']}", lambda: record_json(
            counting.count_weighted(v("schoen_quotient"), d["weighted"]))),
        (f"count_projective:e_plane:{d['ext']}:degree2", lambda: record_json(
            counting.count_projective(v("e_plane"), d["ext"], degree=2))),
        (f"elliptic_ap:e_plane:{d['elliptic_ext']}:degree2", lambda:
            lefschetz.elliptic_ap(v("e_plane"), d["elliptic_ext"], degree=2)),
        (f"count_torus:hulek_verrill:{d['torus']}", lambda: record_json(
            counting.count_torus(known["a"], known["t"], d["torus"]))),
        (f"count_double_cover:double_octic_template:{d['double_cover']}",
         lambda: record_json(counting.count_double_cover(
             v("double_octic_template"), d["double_cover"]))),
    ]
    return [Op(key, lambda ctx, f=f: f()) for key, f in calls], 0


BUILDERS = {"betti421": _betti421, "match_sweep": _match_sweep,
            "newform": _newform, "dense_sweep": _dense_sweep}
WORKLOADS = tuple(BUILDERS)


def build(workload, size, order, cat, outdir):
    """The workload's operations, in the order the order seed gives."""
    ops, fixed = BUILDERS[workload](SIZES[size], cat, outdir)
    rest = ops[fixed:]
    random.Random(order).shuffle(rest)
    return ops[:fixed] + rest


def canonical(value):
    """The JSON form of an output, as it is stored in the pinned file."""
    return json.loads(json.dumps(value, sort_keys=True))


def load_pinned(size):
    with open(PINNED_DIR / f"{size}.json") as fh:
        return json.load(fh)


def check(key, value, pinned):
    """True when value equals the pinned one; a mismatch is logged."""
    if key in pinned and pinned[key] == value:
        return True
    print(f"perfbench: {key}: output differs from the pinned value",
          file=sys.stderr)
    return False


def execute(ops, pinned):
    """Run ops in order and check each output against pinned (a dict keyed
    by op key, or None to only collect outputs).

    Returns (attempted, failed, outputs).  An operation that raises counts
    as failed and the next one still runs.
    """
    ctx, outputs, failed = {}, {}, 0
    for op in ops:
        try:
            outputs[op.key] = canonical(op.call(ctx))
        except Exception:                         # counted, then continue
            traceback.print_exc(file=sys.stderr)
            failed += 1
            continue
        if pinned is not None and not check(op.key, outputs[op.key], pinned):
            failed += 1
    return len(ops), failed, outputs
