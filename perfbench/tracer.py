"""Spans around the calls into each frobtrace layer, recorded from outside
the package, and the per-layer metrics computed from them.

``Tracer.install`` replaces every public function attribute of the layer
modules with a wrapper that records a span: name, start, end and parent.
That includes the names one layer imports by value from another (``cli``
holds its own reference to ``catalog.singular_points``), so a call is seen
whichever module it goes through.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from typing import NamedTuple

LAYERS = ("catalog", "counting", "lefschetz", "qexp", "livne", "cli")
COUNTERS = ("count_projective", "count_twisted", "count_weighted",
            "count_torus", "count_double_cover")
# Models counted with the O(p^3) histogram counter as of commit 93f9727.
HIST_MODELS = ("schoen_x", "schoen_y")
NS = 1e-9


def _describe_count(args, rec):
    spec = args.get("spec")
    return {"nvars": spec.ambient.nvars if spec is not None else None,
            "variety_id": rec.variety_id, "p": rec.p,
            "field_degree": rec.field_degree, "twist_id": rec.twist_id,
            "count": rec.count, "chunks": rec.chunk_count}


# Span attributes taken from the call's arguments and result.
DESCRIBE = {f"counting.{name}": _describe_count for name in COUNTERS}
DESCRIBE["lefschetz.elliptic_ap"] = lambda a, r: {"p": a["p"],
                                                  "degree": a["degree"]}
DESCRIBE["qexp.f25"] = lambda a, r: {"n": a["n"]}


class Span(NamedTuple):
    id: int
    parent: int            # 0 for a call made by the benchmark itself
    name: str              # "<layer>.<function>"
    start: int             # perf_counter_ns
    end: int
    attrs: dict | None

    dur = property(lambda s: s.end - s.start)
    layer = property(lambda s: s.name.partition(".")[0])
    func = property(lambda s: s.name.partition(".")[2])


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    def install(self):
        """Wrap the public functions of every layer module."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"frobtrace.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if obj.__module__ != f"frobtrace.{owner}" or owner not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{owner}.{obj.__name__}")
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name):
        spans, ids, local = self.spans, self._ids, self._local
        describe = DESCRIBE.get(name)
        sig = inspect.signature(fn) if describe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            ok = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                attrs = None
                if ok and describe:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = describe(bound.arguments, result)
                spans.append(Span(sid, parent, name, start, end, attrs))

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def count_key(a):
    return (f"{a['variety_id']}/p={a['p']}/degree={a['field_degree']}"
            f"/twist={a['twist_id']}")


def recorded_counts(spans):
    """[(key, count)] for every counter call, in call order."""
    return [(count_key(s.attrs), s.attrs["count"]) for s in spans
            if s.layer == "counting" and s.func in COUNTERS and s.attrs]


def counter_kind(s):
    """The counting method of a counter span, as of commit 93f9727."""
    a = s.attrs
    if s.func == "count_projective":
        if a["field_degree"] == 2:
            return "ext"
        return "hist_straight" if a["variety_id"] in HIST_MODELS else "dense"
    if s.func == "count_twisted":
        return "hist_twisted" if a["variety_id"] in HIST_MODELS else "dense"
    return s.func.removeprefix("count_")


def nominal_cells(kind, a):
    """Cells the algorithms of commit 93f9727 evaluate for one call: their
    problem size, not a count of work actually done."""
    p, nv = a["p"], a["nvars"]
    if kind.startswith("hist"):
        return p ** 3
    if kind in ("dense", "double_cover"):
        return sum(p ** free for free in range(nv))
    if kind == "ext":
        return sum(p ** (2 * free) for free in range(nv))
    if kind == "weighted":
        return p ** nv
    return (p - 1) ** 4                                   # torus


def _rate(work, ns):
    return work / (ns * NS) if ns else 0.0


def layer_metrics(spans, start_ns, end_ns):
    """Per-layer metrics from the spans of one traced workload run.

    start_ns..end_ns is the workload's timed interval.  Spans before it
    (the set-up's load_catalog) count in their layer but not in
    trace.top_level_frac, the share of that interval the benchmark's own
    calls into the layers cover.
    """
    child_ns = defaultdict(int)
    for s in spans:
        if s.parent:
            child_ns[s.parent] += s.dur
    self_ns = dict.fromkeys(LAYERS, 0)
    for s in spans:
        self_ns[s.layer] += s.dur - child_ns[s.id]
    top_ns = sum(s.dur for s in spans if not s.parent and s.start >= start_ns)

    kind_ns, kind_cells, kind_calls = (defaultdict(int) for _ in range(3))
    chunks = 0
    for s in spans:
        if s.layer == "counting" and s.func in COUNTERS and s.attrs:
            kind = counter_kind(s)
            kind_ns[kind] += s.dur
            kind_cells[kind] += nominal_cells(kind, s.attrs)
            kind_calls[kind] += 1
            chunks += s.attrs["chunks"]
    hist_ns = kind_ns["hist_straight"] + kind_ns["hist_twisted"]
    hist_cells = kind_cells["hist_straight"] + kind_cells["hist_twisted"]

    def total(*names):
        return NS * sum(s.dur for s in spans if s.name in names)

    f25 = [s for s in spans if s.name == "qexp.f25"]
    f25_ns = sum(s.dur for s in f25)
    elliptic = [s for s in spans if s.name == "lefschetz.elliptic_ap"]
    return {
        "counting.hist_straight_s": NS * kind_ns["hist_straight"],
        "counting.hist_twisted_s": NS * kind_ns["hist_twisted"],
        "counting.hist_calls": kind_calls["hist_straight"] + kind_calls["hist_twisted"],
        "counting.hist_cells_per_s": _rate(hist_cells, hist_ns),
        "counting.dense_s": NS * kind_ns["dense"],
        "counting.dense_cells_per_s": _rate(kind_cells["dense"], kind_ns["dense"]),
        "counting.weighted_s": NS * kind_ns["weighted"],
        "counting.weighted_cells_per_s": _rate(kind_cells["weighted"],
                                               kind_ns["weighted"]),
        "counting.ext_s": NS * kind_ns["ext"],
        "counting.torus_s": NS * kind_ns["torus"],
        "counting.double_cover_s": NS * kind_ns["double_cover"],
        "counting.chunks": chunks,
        "counting.self_s": NS * self_ns["counting"],
        "qexp.f25_s": NS * f25_ns,
        "qexp.f25_coeffs_per_s": _rate(sum(s.attrs["n"] for s in f25 if s.attrs),
                                       f25_ns),
        "qexp.checks_s": total("qexp.hasse_check", "qexp.hecke_check"),
        "qexp.self_s": NS * self_ns["qexp"],
        "lefschetz.elliptic_ap_deg1_s": NS * sum(
            s.dur for s in elliptic if s.attrs and s.attrs["degree"] == 1),
        "lefschetz.elliptic_ap_deg2_s": NS * sum(
            s.dur for s in elliptic if s.attrs and s.attrs["degree"] == 2),
        "lefschetz.solve_betti_s": total("lefschetz.solve_betti"),
        "lefschetz.self_s": NS * self_ns["lefschetz"],
        "catalog.singular_points_s": total("catalog.singular_points"),
        "catalog.load_catalog_s": total("catalog.load_catalog"),
        "catalog.self_s": NS * self_ns["catalog"],
        "livne.cover_s": total("livne.check_cover", "livne.find_cover_set"),
        "livne.self_s": NS * self_ns["livne"],
        "cli.self_s": NS * self_ns["cli"],
        "trace.top_level_frac": top_ns / (end_ns - start_ns),
        "trace.spans": len(spans),
    }
