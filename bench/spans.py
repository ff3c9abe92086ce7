"""Spans for the traced run.

`Tracer.install` wraps each function named in `TRACED` and rebinds the name
in every weylret module that holds it, so calls between modules are
recorded too.  Each call keeps one span in memory (name, start, end,
parent); self times are derived from the spans once the run is over, and
the spans are written as gzipped JSON.  A name that a later refactor has
removed is reported as absent rather than failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array

# (module, attribute, span name); a dotted attribute is a method
TRACED = [
    ("weylret.weyl", "compose", "weyl.compose"),
    ("weylret.weyl", "inverse", "weyl.inverse"),
    ("weylret.weyl", "length", "weyl.length"),
    ("weylret.weyl", "bruhat_leq", "weyl.bruhat_leq"),
    ("weylret.weyl", "elements", "weyl.elements"),
    ("weylret.retraction", "algebraic_retract", "retraction.algebraic_retract"),
    ("weylret.retraction", "matroid_retract", "retraction.matroid_retract"),
    ("weylret.retraction", "closest_set", "retraction.closest_set"),
    ("weylret.retraction", "_dominates_all", "retraction.greedy_confirm"),
    ("weylret.matroid", "is_coxeter_matroid", "matroid.is_coxeter_matroid"),
    ("weylret.matroid", "_extremal_elements", "matroid.extremal_scan"),
    ("weylret.matroid", "phi_polytope_check", "matroid.phi_polytope_check"),
    ("weylret.exact", "hull_edges", "exact.hull_edges"),
    ("weylret.exact", "lp_edge_feasible", "exact.lp_edge_feasible"),
    ("weylret.exact", "RationalMatrix.det", "exact.det"),
    ("weylret.orbit", "plucker_support", "orbit.plucker_support"),
    ("weylret.orbit", "fixed_points", "orbit.fixed_points"),
    ("weylret.orbit", "limit_point", "orbit.limit_point"),
    ("weylret.fan", "build_fan", "fan.build_fan"),
    ("weylret.fan", "query", "fan.query"),
    ("weylret.cli", "main", "cli.main"),
]

# the per-layer metrics: name -> (unit, how it is derived)
CALLS = [
    "weyl.compose", "weyl.inverse", "weyl.length",
    "weyl.bruhat_leq.a", "weyl.bruhat_leq.bc", "weyl.bruhat_leq.d",
    "retraction.algebraic_retract", "retraction.matroid_retract", "retraction.closest_set",
    "matroid.is_coxeter_matroid", "matroid.extremal_scan", "matroid.phi_polytope_check",
    "exact.hull_edges", "exact.lp_edge_feasible", "exact.det",
    "orbit.limit_point", "fan.build_fan", "fan.query",
]
SELF = {
    "weyl.kernel": ("weyl.compose", "weyl.inverse", "weyl.length"),
    "weyl.bruhat_leq": ("weyl.bruhat_leq.a", "weyl.bruhat_leq.bc", "weyl.bruhat_leq.d"),
    "weyl.elements": ("weyl.elements",),
    "retraction.algebraic_retract": ("retraction.algebraic_retract",),
    "retraction.matroid_retract": ("retraction.matroid_retract",),
    "retraction.closest_set": ("retraction.closest_set",),
    "matroid.is_coxeter_matroid": ("matroid.is_coxeter_matroid",),
    "matroid.extremal_scan": ("matroid.extremal_scan",),
    "matroid.phi_polytope_check": ("matroid.phi_polytope_check",),
    "exact.hull_edges": ("exact.hull_edges",),
    "exact.lp_edge_feasible": ("exact.lp_edge_feasible",),
    "exact.det": ("exact.det",),
    "orbit.plucker_support": ("orbit.plucker_support",),
    "orbit.fixed_points": ("orbit.fixed_points",),
    "orbit.limit_point": ("orbit.limit_point",),
    "fan.build_fan": ("fan.build_fan",),
    "fan.query": ("fan.query",),
    "cli.main": ("cli.main",),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.self_s": "s" for n in SELF})
    units.update({
        "weyl.signed_cache.entries": "count",
        "retraction.greedy_confirm.attempts": "count",
        "retraction.greedy_confirm.hits": "count",
        "retraction.greedy_confirm.hit_ratio": "ratio",
        "cli.import_s": "s",
    })
    return units


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.absent: list[str] = []
        self.hits = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span: str):
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        def enter(nid: int) -> int:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def leave(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if span == "weyl.bruhat_leq":
            by_type = {t: self._id(f"weyl.bruhat_leq.{t.lower()}") for t in ("A", "BC", "D")}
            mixed = self._id("weyl.bruhat_leq.product")

            def traced(v, w):
                fs = v.group.factors
                idx = enter(by_type.get(fs[0].type.value, mixed) if len(fs) == 1 else mixed)
                try:
                    return fn(v, w)
                finally:
                    leave(idx)
        elif span == "retraction.greedy_confirm":
            nid = self._id(span)

            def traced(*args, **kwargs):
                idx = enter(nid)
                try:
                    ok = fn(*args, **kwargs)
                finally:
                    leave(idx)
                tracer.hits += bool(ok)
                return ok
        else:
            nid = self._id(span)

            def traced(*args, **kwargs):
                idx = enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        loaded = [m for k, m in sys.modules.items() if k == "weylret" or k.startswith("weylret.")]
        for modname, attr, span in TRACED:
            try:
                owner = importlib.import_module(modname)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapped = self._wrap(original, span)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def metrics(self) -> dict[str, float]:
        import numpy as np

        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)) / 1e9
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k) if len(name) else np.zeros(k, dtype=int)
        self_s = np.bincount(name, weights=own, minlength=k) if len(name) else np.zeros(k)

        def total(arr, span: str):
            i = self._ids.get(span)
            return arr[i] if i is not None else 0

        out: dict[str, float] = {f"{n}.calls": int(total(calls, n)) for n in CALLS}
        for metric, spans in SELF.items():
            out[f"{metric}.self_s"] = float(sum(total(self_s, s) for s in spans))
        attempts = int(total(calls, "retraction.greedy_confirm"))
        out["retraction.greedy_confirm.attempts"] = attempts
        out["retraction.greedy_confirm.hits"] = self.hits
        out["retraction.greedy_confirm.hit_ratio"] = self.hits / attempts if attempts else 0.0
        weyl = sys.modules.get("weylret.weyl")
        out["weyl.signed_cache.entries"] = len(getattr(weyl, "_SIGNED_BRUHAT_CACHE", ()))
        return out

    def write(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0
        doc = {
            "names": self.names,
            "absent": self.absent,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
