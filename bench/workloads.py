"""The benchmark's four workloads: weylret objects built from the seeded
inputs, the timed list of operations, and the checks that run after the
timed region.

The inputs are plain data that `inputs.py` makes from the seed with the
oracles, never with weylret's own samplers; the `build_*` functions here
turn them into weylret objects inside `setup_s`, and no program cache is
filled before timing starts.  The timed operations call weylret only
through module attributes (`weyl.elements`, `retraction.closest_set`, ...),
so a traced run sees every call after it rebinds those names.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracle
from weylret import fan, matroid, orbit, retraction, weyl
from weylret.exact import RationalMatrix
from weylret.retraction import SubsetM
from weylret.weyl import GroupDescriptor


@dataclass
class Outcome:
    """What the timed region produced: one entry per operation attempted."""

    results: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def attempt(self, label: str, fn: Callable, *args, **kwargs) -> Any:
        self.attempted += 1
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        return out


def _win(w) -> list[int]:
    return list(w.window)


def _fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


# --- tables --------------------------------------------------------------------

def build_tables(data: dict) -> dict:
    cases = []
    for case in data["cases"]:
        rows = tuple(_fractions(row) for row in case["rows"])
        cases.append({"n": case["n"], "kind": case["kind"], "rows": rows, "x": RationalMatrix(rows),
                      "fixed": {tuple(w) for w in case["fixed"]},
                      "points": [_fractions(p) for p in case["points"]]})
    return {"cases": cases}


def run_tables(inputs: dict) -> Outcome:
    out = Outcome()
    for case in inputs["cases"]:
        sup = out.attempt("plucker_support", orbit.plucker_support, case["x"])
        M = out.attempt("fixed_points", orbit.fixed_points, sup)
        greedy = out.attempt("greedy table", retraction.retraction_table, M)
        order = out.attempt("order table", retraction.retraction_table, M, method="matroid")
        limit = out.attempt("limit table", orbit.geometric_table, sup)
        closest = [
            (u, out.attempt("closest_set", retraction.closest_set, M, u))
            for u in weyl.elements(M.group)
        ]
        f = out.attempt("build_fan", fan.build_fan, greedy)
        queries = [out.attempt("query", fan.query, f, lam) for lam in case["points"]]
        out.results.append((sup, M, greedy, order, limit, closest, f, queries))
    return out


def canon_tables(out: Outcome) -> list:
    res = []
    for sup, M, greedy, order, limit, closest, f, queries in out.results:
        res.append({
            "support": [[list(J) for J in level] for level in sup.sets],
            "fixed": [_win(w) for w in M],
            "tables": [[[_win(u), _win(v)] for u, v in t.mapping] for t in (greedy, order, limit)],
            "closest": [[_win(u), [_win(v) for v in c[0]], c[1]] for u, c in closest],
            "fan": [[_win(c.target), [_win(u) for u in c.members]] for c in f.cones],
            "queries": [_win(q.target) for q in queries],
        })
    return res


def check_tables(inputs: dict, canon: list) -> list[str]:
    bad = []
    for case, got in zip(inputs["cases"], canon):
        n, rows = case["n"], case["rows"]
        tag = f"n={n} {case['kind']} {[[str(v) for v in row] for row in rows]}"
        fixed = [tuple(w) for w in got["fixed"]]
        for w in fixed:
            if not oracle.has_nonzero_leading_minors(rows, w):
                bad.append(f"{tag}: fixed point {w} has a zero leading minor")
        if set(fixed) != case["fixed"]:
            bad.append(f"{tag}: fixed points differ from the minor oracle")
        W = oracle.group_windows("A", n)
        greedy, order, limit = ({tuple(u): tuple(v) for u, v in t} for t in got["tables"])
        if set(greedy) != set(W):
            bad.append(f"{tag}: greedy table does not cover S_{n}")
        for u in W:
            if not greedy.get(u) == order.get(u) == limit.get(u):
                bad.append(f"{tag}: tables disagree at {u}")
        for t, name in ((greedy, "greedy"), (order, "order"), (limit, "limit")):
            if any(t.get(v) != v for v in fixed):
                bad.append(f"{tag}: {name} table does not fix its targets")
        for u, close, dist in got["closest"]:
            u = tuple(u)
            best = min(oracle.type_a_distance(u, v) for v in fixed)
            if len(close) != 1 or tuple(close[0]) != greedy.get(u) or dist != best:
                bad.append(f"{tag}: closest_set at {u} is {close} at {dist}, oracle minimum {best}")
        members = [tuple(u) for _, ms in got["fan"] for u in ms]
        if len(members) != len(set(members)) or set(members) != set(W):
            bad.append(f"{tag}: fan fibers do not partition S_{n}")
        for target, ms in got["fan"]:
            if any(greedy.get(tuple(u)) != tuple(target) for u in ms):
                bad.append(f"{tag}: fan fiber of {target} holds a chamber mapped elsewhere")
        for lam, target in zip(case["points"], got["queries"]):
            u = tuple(sorted(range(1, n + 1), key=lambda i: lam[i - 1]))
            if tuple(target) != greedy.get(u):
                bad.append(f"{tag}: query {lam} returned {target}, chamber {u} maps to {greedy.get(u)}")
    return bad


# --- polytope --------------------------------------------------------------------

def _subset(typ: str, n: int, windows) -> SubsetM:
    g = GroupDescriptor.simple(typ, n)
    return SubsetM(g, tuple(g.element(w) for w in windows))


def build_polytope(data: dict) -> dict:
    return {"cases": [dict(case, windows=[tuple(w) for w in case["windows"]],
                           M=_subset(case["typ"], case["n"], case["windows"]))
                      for case in data["cases"]]}


def run_polytope(inputs: dict) -> Outcome:
    out = Outcome()
    for case in inputs["cases"]:
        M = case["M"]
        verdict = out.attempt("is_coxeter_matroid", matroid.is_coxeter_matroid, M)
        report = out.attempt("phi_polytope_check", matroid.phi_polytope_check, M)
        out.results.append((verdict, report))
    return out


def canon_polytope(out: Outcome) -> list:
    return [
        {
            "matroid": v.is_matroid,
            "failures": [[_win(u), sorted(_win(x) for x in ext)] for u, ext in v.failures],
            "phi": r.is_phi,
            "nu": [str(c) for c in r.nu],
            "edges": sorted(sorted([_win(a), _win(b)]) for a, b in r.edges),
            "offending": sorted(sorted([_win(a), _win(b)]) for a, b in r.offending),
        }
        for v, r in out.results
    ]


def _check_failures(tag, order: oracle.Order, windows, failures, side: str, full: bool) -> list[str]:
    """Each reported failure has an extremal set of size other than 1 equal
    to the oracle's; with `full`, no base element is missed either."""
    bad = []
    reported = {}
    for u, ext in failures:
        u, ext = tuple(u), {tuple(x) for x in ext}
        reported[u] = ext
        if len(ext) == 1:
            bad.append(f"{tag}: failure at {u} has a single extremal element")
        if ext != order.extremal(windows, u, side):
            bad.append(f"{tag}: extremal set at {u} differs from the oracle")
    if full:
        for u in oracle.group_windows(order.typ, order.n):
            if u not in reported and len(order.extremal(windows, u, side)) != 1:
                bad.append(f"{tag}: no failure reported at {u}, where the oracle finds none unique")
    return bad


def check_polytope(inputs: dict, canon: list) -> list[str]:
    bad = []
    orders = {}
    for case, got in zip(inputs["cases"], canon):
        typ, n, windows = case["typ"], case["n"], case["windows"]
        tag = f"{typ}{n} {[list(w) for w in windows]}"
        order = orders.setdefault((typ, n), oracle.Order(typ, n))
        if got["matroid"] != got["phi"]:
            bad.append(f"{tag}: unique-extremum {got['matroid']} vs root-parallel {got['phi']}")
        if case["known"] and not (got["matroid"] and got["phi"]):
            bad.append(f"{tag}: a known Coxeter matroid was rejected")
        nu = [Fraction(c) for c in got["nu"]]
        rts = oracle.roots(typ, n)
        for a, b in got["offending"]:
            d = [p - q for p, q in zip(oracle.act(tuple(a), nu), oracle.act(tuple(b), nu))]
            if any(oracle.parallel(d, beta) for beta in rts):
                bad.append(f"{tag}: offending edge {a}-{b} is parallel to a root")
        bad += _check_failures(tag, order, windows, got["failures"], "max", full=len(windows) <= 16)
    return bad


# --- signed ----------------------------------------------------------------------

def build_signed(data: dict) -> dict:
    return {"cases": [dict(case, M=_subset(case["typ"], case["n"], case["windows"]))
                      for case in data["cases"]]}


def run_signed(inputs: dict) -> Outcome:
    out = Outcome()
    for case in inputs["cases"]:
        M = case["M"]
        verdict = out.attempt("is_coxeter_matroid", matroid.is_coxeter_matroid, M)
        table = None
        if case["interval"]:
            table = out.attempt("order table", retraction.retraction_table, M,
                                method="matroid", greedy_first=True)
        out.results.append((verdict, table))
    return out


def canon_signed(out: Outcome) -> list:
    return [
        {
            "matroid": v.is_matroid,
            "failures": [[_win(u), sorted(_win(x) for x in ext)] for u, ext in v.failures],
            "table": None if t is None else [[_win(u), _win(w)] for u, w in t.mapping],
        }
        for v, t in out.results
    ]


def check_signed(inputs: dict, canon: list) -> list[str]:
    bad = []
    orders = {}
    for case, got in zip(inputs["cases"], canon):
        typ, n, windows = case["typ"], case["n"], [tuple(w) for w in case["windows"]]
        order = orders.setdefault((typ, n), oracle.Order(typ, n))
        tag = f"{typ}{n} {'interval' if case['interval'] else 'subset'} of {len(windows)}"
        if case["interval"]:
            if not got["matroid"]:
                bad.append(f"{tag}: Bruhat interval rejected")
            table = got["table"]
            if len(table) != len(oracle.group_windows(typ, n)):
                bad.append(f"{tag}: table does not cover the group")
            for u, v in table:
                iu = oracle.inverse(tuple(u))
                tv = oracle.compose(iu, tuple(v))
                if tuple(v) not in windows or not all(order.leq(tv, oracle.compose(iu, w)) for w in windows):
                    bad.append(f"{tag}: retract {v} at {u} is not the least translate")
        bad += _check_failures(tag, order, windows, got["failures"], "max", full=not case["interval"])
    return bad


# --- cli ----------------------------------------------------------------------

# inputs of the three calls that fail today; fixed, not drawn from the seed
NONSQUARE = [["1", "2", "3"], ["4", "5", "6"]]
A4_DIM4_SUBSET = [[1, 2, 3, 4, 5], [2, 1, 3, 4, 5], [1, 3, 2, 4, 5], [1, 2, 4, 3, 5], [1, 2, 3, 5, 4]]


@dataclass
class Call:
    label: str
    argv: list[str]
    stdin: str = ""
    known_fault: bool = False


def build_cli(data: dict) -> dict:
    mat, at = json.dumps(data["rows"]), json.dumps(data["at"])
    workdir = Path(".bench_out") / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    mat_file = workdir / "matrix.json"
    mat_file.write_text(mat)
    subset_file = workdir / "bc2.json"
    subset_file.write_text(json.dumps(data["bc2"]))
    mat_arg = f"@{mat_file}"
    calls = [
        Call("retract greedy", ["retract", "--matrix", mat, "--method", "greedy", "--at", at]),
        Call("retract order", ["retract", "--matrix", mat_arg, "--method", "order", "--at", at]),
        Call("retract closest", ["retract", "--matrix", "-", "--method", "closest", "--at", at], stdin=mat),
        Call("table greedy", ["table", "--matrix", mat_arg, "--method", "greedy"]),
        Call("table order", ["table", "--matrix", mat, "--method", "order"]),
        Call("table limit", ["table", "--matrix", mat_arg, "--method", "limit"]),
        Call("fixed-points", ["fixed-points", "--matrix", mat]),
        Call("limit", ["limit", "--matrix", mat_arg, "--weight", json.dumps(data["weight"])]),
        Call("fan", ["fan", "--matrix", mat, "--method", "limit"]),
        Call("query", ["query", "--matrix", mat_arg, "--method", "greedy", "--point", json.dumps(data["point"])]),
        Call("matroid check", ["matroid", "check", "--group", "BC2", "--subset", f"@{subset_file}"]),
        Call("matroid polytope", ["matroid", "polytope", "--group", "A2", "--subset", "-"], stdin=json.dumps(data["s3"])),
        Call("two-element", ["two-element", "--group", "A3", "--pair", json.dumps(data["pair"])]),
        Call("sample", ["sample", "--n", "4", "--seed", str(data["sample_seed"])]),
        Call("verify", ["verify", "table1", "fan-figures"]),
        Call("matroid check A4", ["matroid", "check", "--group", "A4", "--subset", json.dumps(A4_DIM4_SUBSET)]),
        Call("fixed-points non-square", ["fixed-points", "--matrix", json.dumps(NONSQUARE)], known_fault=True),
        Call("matroid polytope A4", ["matroid", "polytope", "--group", "A4", "--subset", json.dumps(A4_DIM4_SUBSET)],
             known_fault=True),
        Call("sample n=0", ["sample", "--n", "0", "--seed", "0"], known_fault=True),
    ]
    return dict(data, calls=calls, at=tuple(data["at"]), workdir=workdir)


def run_cli(inputs: dict) -> Outcome:
    out = Outcome()
    for call in inputs["calls"]:
        out.attempted += 1
        p = subprocess.run([sys.executable, "-m", "weylret", *call.argv], input=call.stdin,
                           capture_output=True, text=True)
        out.results.append((p.returncode, p.stdout, p.stderr))
    return out


def run_cli_inprocess(inputs: dict) -> Outcome:
    """The same calls through `cli.main` in this process (traced runs)."""
    import weylret.cli as cli

    out = Outcome()
    for call in inputs["calls"]:
        out.attempted += 1
        so, se = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(call.stdin)
        try:
            with redirect_stdout(so), redirect_stderr(se):
                code = cli.main(call.argv)
        except Exception as exc:  # mirrors an uncaught traceback in a child process
            code = 1
            se.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
        finally:
            sys.stdin = saved
        out.results.append((code, so.getvalue(), se.getvalue()))
    return out


def canon_cli(out: Outcome) -> list:
    return [[code, stdout] for code, stdout, _ in out.results]


def score_cli(inputs: dict, out: Outcome) -> list[str]:
    """Count each known fault that still fails in `out.failed`, and return
    the problems of the other calls, which must exit 0 without a traceback.
    A known fault is mended when it exits 3 or 4 with an `error:` line and
    no traceback; the polytope call also when it exits 0 with the verdict
    of `matroid check` on the same subset."""
    bad = []
    outputs = {call.label: res for call, res in zip(inputs["calls"], out.results)}
    code, stdout, _ = outputs["matroid check A4"]
    verdict_a4 = json.loads(stdout)["is_matroid"] if code == 0 else None
    for call in inputs["calls"]:
        code, stdout, stderr = outputs[call.label]
        if not call.known_fault:
            if code != 0 or "Traceback" in stderr:
                bad.append(f"{call.label}: exit {code}: {stderr.strip()[-300:]}")
            continue
        ok = code in (3, 4) and "error:" in stderr and "Traceback" not in stderr
        if call.label == "matroid polytope A4" and code == 0 and verdict_a4 is not None:
            ok = json.loads(stdout).get("is_phi") == verdict_a4
        if not ok:
            out.failed += 1
            out.errors.append(f"{call.label}: exit {code}, {stderr.strip().splitlines()[-1:]} (known fault)")
    return bad


def check_cli(inputs: dict, canon: list) -> list[str]:
    bad = []
    res = {}
    for call, (code, stdout) in zip(inputs["calls"], canon):
        if code == 0 and not call.known_fault:
            try:
                res[call.label] = json.loads(stdout) if call.label != "verify" else stdout
            except json.JSONDecodeError:
                bad.append(f"{call.label}: output is not JSON")
    fixed = [tuple(w) for w in inputs["fixed"]]
    S4 = oracle.group_windows("A", 4)

    def closest(u):
        d = {v: oracle.type_a_distance(u, v) for v in fixed}
        best = min(d.values())
        return [v for v in fixed if d[v] == best], best

    at = inputs["at"]
    near, dist = closest(at)
    for label in ("retract greedy", "retract order"):
        if label in res and [tuple(res[label]["retract"])] != near:
            bad.append(f"{label}: {res[label]['retract']} is not the closest member {near}")
    if "retract closest" in res:
        r = res["retract closest"]
        if [tuple(v) for v in r["closest"]] != near or r["distance"] != dist:
            bad.append(f"retract closest: {r} vs oracle {near} at {dist}")
    for label in ("table greedy", "table order", "table limit"):
        if label in res:
            t = {tuple(u): tuple(v) for u, v in res[label]["map"]}
            if set(t) != set(S4) or any([t[u]] != closest(u)[0] for u in S4):
                bad.append(f"{label}: some entry is not the unique closest member")
    if "fixed-points" in res and sorted(tuple(w) for w in res["fixed-points"]["fixed"]) != fixed:
        bad.append("fixed-points: differs from the minor oracle")
    if "limit" in res:
        lam = [Fraction(v) for v in inputs["weight"]]
        u = tuple(sorted(range(1, 5), key=lambda i: lam[i - 1]))
        if [tuple(res["limit"]["limit"])] != closest(u)[0]:
            bad.append(f"limit: {res['limit']['limit']} in chamber {u}")
    if "fan" in res:
        members = [tuple(m) for c in res["fan"]["cones"] for m in c["members"]]
        targets = {tuple(c["target"]) for c in res["fan"]["cones"]}
        if sorted(members) != sorted(S4) or not targets <= set(fixed):
            bad.append("fan: fibers do not partition S4 onto the fixed points")
    if "query" in res:
        lam = [Fraction(v) for v in inputs["point"]]
        u = tuple(sorted(range(1, 5), key=lambda i: lam[i - 1]))
        if [tuple(res["query"]["target"])] != closest(u)[0]:
            bad.append(f"query: target {res['query']['target']} for chamber {u}")
    for label, typ, n, subset in (("matroid check", "BC", 2, inputs["bc2"]),
                                  ("matroid check A4", "A", 5, A4_DIM4_SUBSET),
                                  ("matroid polytope", "A", 3, inputs["s3"])):
        if label not in res:
            continue
        order = oracle.Order(typ, n)
        ws = [tuple(w) for w in subset]
        side = res[label].get("side", "max")
        want = all(len(order.extremal(ws, u, side)) == 1 for u in oracle.group_windows(typ, n))
        got = res[label]["is_phi"] if label == "matroid polytope" else res[label]["is_matroid"]
        if got != want:
            bad.append(f"{label}: verdict {got}, oracle {want}")
        if label != "matroid polytope":
            for f in res[label]["failures"]:
                ext = {tuple(x) for x in f["extremal"]}
                if len(ext) == 1 or ext != order.extremal(ws, tuple(f["at"]), side):
                    bad.append(f"{label}: failure at {f['at']} not confirmed by the oracle")
    if "two-element" in res:
        x, y = (tuple(w) for w in inputs["pair"])
        d = oracle.compose(oracle.inverse(x), y)
        is_refl = sum(1 for i, v in enumerate(d, 1) if v != i) == 2
        r = res["two-element"]
        if not r["agree"] or r["reflection_route"] != is_refl:
            bad.append(f"two-element: {r}, oracle reflection {is_refl}")
    if "sample" in res:
        m = res["sample"]
        rows = [[Fraction(v) for v in row] for row in m]
        if len(rows) != 4 or any(len(r) != 4 for r in rows) or oracle.determinant(rows) == 0:
            bad.append("sample: not an invertible 4x4 matrix")
    if "verify" in res:
        text = res["verify"]
        if not ("PASS table1" in text and "PASS fan-figures" in text and "all 2 suites passed" in text):
            bad.append(f"verify: {text.strip()[-200:]}")
    return bad


# --- registry ------------------------------------------------------------------

WORKLOADS = {
    "tables": (build_tables, run_tables, canon_tables, check_tables),
    "polytope": (build_polytope, run_polytope, canon_polytope, check_polytope),
    "signed": (build_signed, run_signed, canon_signed, check_signed),
    "cli": (build_cli, run_cli, canon_cli, check_cli),
}
