"""Every function the benchmark's traced run wraps still exists.

`bench/spans.py` reports a traced name it cannot find as absent and goes
on, which would zero that layer's metrics; this test makes such a rename
fail instead.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    missing = []
    for module, attribute, _ in traced:
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attribute}")
    assert not missing, missing


def test_traced_order_route_runs():
    # in a fresh process, as a traced benchmark round: every wrapped
    # function must keep working, including the bool() taken of
    # `_dominates_all` results
    script = textwrap.dedent(
        f"""
        import importlib.util, json
        from weylret import matroid, retraction
        from weylret.errors import NotAMatroidAt
        from weylret.weyl import GroupDescriptor, WeylType, elements

        spec = importlib.util.spec_from_file_location("bench_spans", {str(SPANS)!r})
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        tracer.install()

        bc3 = GroupDescriptor.simple(WeylType.BC, 3)
        interval = matroid.bruhat_interval(bc3.identity(), bc3.element((-2, 3, -1)))
        M = retraction.SubsetM(bc3, interval)
        assert matroid.is_coxeter_matroid(M).is_matroid
        retraction.retraction_table(M, method="matroid")
        u = elements(bc3)[5]
        retraction._dominates_all(M, u, retraction.algebraic_retract(M, u), "min")

        bc2 = GroupDescriptor.simple(WeylType.BC, 2)
        N = retraction.SubsetM.from_windows(bc2, [(2, 1), (1, -2)])
        failed = 0
        for u in elements(bc2):
            try:
                retraction.matroid_retract(N, u)
            except NotAMatroidAt:
                failed += 1
        assert failed
        print(json.dumps({{"absent": tracer.absent, "metrics": tracer.metrics()}}))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["absent"] == []
    metrics = out["metrics"]
    assert metrics["matroid.is_coxeter_matroid.calls"] == 1
    assert metrics["retraction.matroid_retract.calls"] == 8
    assert metrics["retraction.greedy_confirm.attempts"] == 1
    assert metrics["matroid.extremal_scan.calls"] > 0


def test_workload_keywords_are_parameters():
    # the benchmark's files are frozen between benchmark changes: a keyword
    # that a workload passes through `out.attempt(label, fn, ...)` must stay
    # a parameter of fn, or that workload fails only when the benchmark runs
    tree = ast.parse(WORKLOADS.read_text())
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("weylret")
        for alias in node.names
    }

    def resolve(expr):
        if isinstance(expr, ast.Name):
            module, name = imported[expr.id]
            try:
                return importlib.import_module(f"{module}.{name}")
            except ImportError:
                return getattr(importlib.import_module(module), name)
        return getattr(resolve(expr.value), expr.attr)

    checked, unknown = [], []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "attempt"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "out"
        ):
            continue
        fn = resolve(node.args[1])
        params = inspect.signature(fn).parameters
        for kw in node.keywords:
            checked.append((fn.__name__, kw.arg))
            if kw.arg not in params:
                unknown.append(f"line {node.lineno}: {fn.__qualname__}({kw.arg}=...)")
    assert not unknown, unknown
    assert ("retraction_table", "greedy_first") in checked
