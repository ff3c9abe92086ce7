"""Acceptance gate: one test per shipped criterion, one verdict line each.

The verdict lines are collected in conftest.ACCEPTANCE_LINES and echoed in a
terminal section after the run, so the per-criterion outcomes are visible
even under output capture.  Stated runtime budgets are asserted directly.
"""

from __future__ import annotations

import itertools
import time

import conftest
from oracles import (
    bfs_lengths,
    covering_closure,
    drop_last,
    hull_edges_2d,
    oracle_leq,
)

from weylret.exact import RationalMatrix, hull_edges, lp_edge_feasible
from weylret.fan import build_fan
from weylret.matroid import (
    fano_matroid_s7,
    is_coxeter_matroid,
    orbit_points,
    phi_polytope_check,
)
from weylret.orbit import fixed_points, geometric_table, plucker_support
from weylret.retraction import SubsetM, algebraic_retract, closest_set, retraction_table
from weylret.suites import (
    DEMO_MATRIX_1,
    DEMO_MATRIX_2,
    EXPECTED_FIXED_1,
    EXPECTED_FIXED_2,
    EXPECTED_SUPPORT_1,
    EXPECTED_SUPPORT_2,
    EXPECTED_TABLE_1,
    EXPECTED_TABLE_2,
    run_suite,
)
from weylret.weyl import (
    GroupDescriptor,
    WeylType,
    bruhat_leq,
    compose,
    elements,
    inverse,
    length,
)


def _report(num: int, ok: bool, detail: str, secs: float | None = None) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    if secs is not None:
        line += f" ({secs:.2f}s)"
    conftest.ACCEPTANCE_LINES.append(line)


def _table_as_windows(table) -> dict:
    return {u: v.window for u, v in table.as_dict.items()}


def _fill_tables(random_matrices, table_cache) -> None:
    # shared by the random-scale criteria; the first one to run pays for it
    if table_cache:
        return
    for n, mats in random_matrices.items():
        for i, x in enumerate(mats):
            M = fixed_points(plucker_support(x))
            table_cache[(n, i)] = (M, retraction_table(M, method="algebraic"))


def test_criterion_01_frozen_tables_both_routes():
    t0 = time.perf_counter()
    bad = []
    for rows, expected in (
        (DEMO_MATRIX_1, EXPECTED_TABLE_1),
        (DEMO_MATRIX_2, EXPECTED_TABLE_2),
    ):
        x = RationalMatrix(rows)
        geo = _table_as_windows(geometric_table(x))
        alg = _table_as_windows(
            retraction_table(fixed_points(plucker_support(x)), method="algebraic")
        )
        for u, v in expected.items():
            if geo[u] != v:
                bad.append(("limit", rows, u, geo[u], v))
            if alg[u] != v:
                bad.append(("greedy", rows, u, alg[u], v))
    secs = time.perf_counter() - t0
    ok = not bad and secs < 1.0
    _report(1, ok, "limit and greedy routes match all 12 frozen table entries", secs)
    assert not bad, bad
    assert secs < 1.0


def test_criterion_02_fixed_point_sets_and_supports():
    t0 = time.perf_counter()
    bad = []
    for rows, exp_support, exp_fixed in (
        (DEMO_MATRIX_1, EXPECTED_SUPPORT_1, EXPECTED_FIXED_1),
        (DEMO_MATRIX_2, EXPECTED_SUPPORT_2, EXPECTED_FIXED_2),
    ):
        sup = plucker_support(RationalMatrix(rows))
        for k, level in enumerate(exp_support, start=1):
            if sup.at(k) != level:
                bad.append((rows, k, sup.at(k)))
        got = tuple(w.window for w in fixed_points(sup).elements)
        if got != exp_fixed:
            bad.append((rows, "fixed", got))
    secs = time.perf_counter() - t0
    ok = not bad and secs < 1.0
    _report(2, ok, "both demo matrices give the frozen supports and fixed sets", secs)
    assert not bad, bad
    assert secs < 1.0


def test_criterion_03_random_scale_table_agreement(random_matrices, table_cache):
    t0 = time.perf_counter()
    _fill_tables(random_matrices, table_cache)
    entries = 0
    bad = []
    for n, mats in random_matrices.items():
        for i, x in enumerate(mats):
            _, alg = table_cache[(n, i)]
            geo = geometric_table(x)
            entries += len(geo.mapping)
            if geo != alg:
                bad.append((n, i))
    secs = time.perf_counter() - t0
    ok = not bad and secs < 120.0
    _report(
        3,
        ok,
        f"limit table = greedy table on {entries} entries over 300 matrices",
        secs,
    )
    assert not bad, bad
    assert secs < 120.0


def test_criterion_04_closest_point_uniqueness(random_matrices, table_cache):
    t0 = time.perf_counter()
    _fill_tables(random_matrices, table_cache)
    checks = 0
    bad = []
    for (n, i), (M, table) in table_cache.items():
        for u in elements(M.group):
            close, _ = closest_set(M, u)
            checks += 1
            if len(close) != 1 or close[0].window != table.retract(u).window:
                bad.append((n, i, u.window))
    secs = time.perf_counter() - t0
    ok = not bad and secs < 300.0
    _report(
        4,
        ok,
        f"closest set is the unique table entry at all {checks} base elements",
        secs,
    )
    assert not bad, bad
    assert secs < 300.0


def test_criterion_05_matroid_route_agreement(random_matrices, table_cache):
    t0 = time.perf_counter()
    _fill_tables(random_matrices, table_cache)
    bad = []
    for (n, i), (M, alg) in table_cache.items():
        if retraction_table(M, method="matroid") != alg:
            bad.append((n, i, "table"))
        if not is_coxeter_matroid(M).is_matroid:
            bad.append((n, i, "verdict"))
    secs = time.perf_counter() - t0
    ok = not bad and secs < 300.0
    _report(
        5,
        ok,
        "order-route tables match and every fixed set passes the matroid check",
        secs,
    )
    assert not bad, bad
    assert secs < 300.0


def test_criterion_06_counterexample_pairs(s3, s4):
    t0 = time.perf_counter()
    bad = []

    M1 = SubsetM.from_windows(s3, [(2, 1, 3), (1, 3, 2)])
    close, dist = closest_set(M1, s3.identity())
    if sorted(v.window for v in close) != [(1, 3, 2), (2, 1, 3)] or dist != 1:
        bad.append(("closest tie", [v.window for v in close], dist))
    for side in ("min", "max"):
        if is_coxeter_matroid(M1, side=side).is_matroid:
            bad.append(("unique-extremum route", side))
    if phi_polytope_check(M1).is_phi:
        bad.append(("root-parallel route",))

    M2 = SubsetM.from_windows(s4, [(2, 1, 4, 3), (4, 3, 1, 2)])
    u = s4.element((1, 4, 2, 3))
    greedy = algebraic_retract(M2, u)
    d_greedy = length(compose(inverse(u), greedy))
    close2, d_close = closest_set(M2, u)
    if greedy.window != (4, 3, 1, 2) or d_greedy != 3:
        bad.append(("greedy", greedy.window, d_greedy))
    if [v.window for v in close2] != [(2, 1, 4, 3)] or d_close != 2:
        bad.append(("closest", [v.window for v in close2], d_close))

    secs = time.perf_counter() - t0
    ok = not bad
    _report(
        6, ok, "two-closest tie, double matroid failure, greedy overshoot 3 vs 2", secs
    )
    assert not bad, bad


def test_criterion_07_matroid_route_equivalence():
    t0 = time.perf_counter()
    res = run_suite("gs-s3-exhaustive", count=200, seed=0)
    secs = time.perf_counter() - t0
    ok = res.passed and res.checks == 313 and secs < 180.0
    _report(
        7,
        ok,
        "both matroid routes agree on 63 + 200 + 50 subsets "
        f"(checks={res.checks})",
        secs,
    )
    assert res.passed, res.failures
    assert res.checks == 313
    assert secs < 180.0


def test_criterion_08_all_two_element_subsets():
    t0 = time.perf_counter()
    res = run_suite("two-element-s4")
    secs = time.perf_counter() - t0
    ok = res.passed and res.checks == 277 and secs < 120.0
    _report(
        8,
        ok,
        "three routes agree on all 276 two-element subsets "
        f"(checks={res.checks})",
        secs,
    )
    assert res.passed, res.failures
    assert res.checks == 277
    assert secs < 120.0


def test_criterion_09_seven_letter_matroid():
    t0 = time.perf_counter()
    M = fano_matroid_s7()
    size_ok = len(M) == 4032
    res = run_suite("fano")
    secs = time.perf_counter() - t0
    ok = size_ok and res.passed and secs < 600.0
    _report(
        9,
        ok,
        f"4032-element seven-letter set passes the greedy-first matroid check "
        f"(checks={res.checks})",
        secs,
    )
    assert size_ok, len(M)
    assert res.passed, res.failures
    assert secs < 600.0


def test_criterion_10_fan_figures():
    t0 = time.perf_counter()
    bad = []

    fan1 = build_fan(geometric_table(RationalMatrix(DEMO_MATRIX_1)))
    if len(fan1.cones) != 4 or not all(c.strongly_convex for c in fan1.cones):
        bad.append(("fan1 shape", len(fan1.cones)))
    if fan1.lineality != ():
        bad.append(("fan1 lineality", fan1.lineality))
    groups1 = {c.target.window: {m.window for m in c.members} for c in fan1.cones}
    if groups1 != {
        (1, 2, 3): {(1, 2, 3)},
        (1, 3, 2): {(1, 3, 2)},
        (2, 1, 3): {(2, 1, 3), (2, 3, 1)},
        (3, 1, 2): {(3, 1, 2), (3, 2, 1)},
    }:
        bad.append(("fan1 groupings", groups1))

    fan2 = build_fan(geometric_table(RationalMatrix(DEMO_MATRIX_2)))
    if len(fan2.cones) != 2 or any(c.strongly_convex for c in fan2.cones):
        bad.append(("fan2 shape", len(fan2.cones)))
    if fan2.lineality != ((1, -2, 1),):
        bad.append(("fan2 lineality", fan2.lineality))
    groups2 = {c.target.window: {m.window for m in c.members} for c in fan2.cones}
    if groups2 != {
        (1, 2, 3): {(1, 2, 3), (1, 3, 2), (2, 1, 3)},
        (3, 2, 1): {(2, 3, 1), (3, 1, 2), (3, 2, 1)},
    }:
        bad.append(("fan2 groupings", groups2))

    secs = time.perf_counter() - t0
    ok = not bad and secs < 1.0
    _report(
        10,
        ok,
        "4 pointed cones with frozen fibers; 2 cones with lineality (1,-2,1)",
        secs,
    )
    assert not bad, bad
    assert secs < 1.0


def test_criterion_11_oracle_suites(s3):
    t0 = time.perf_counter()
    bad = []
    length_checks = order_checks = edge_checks = 0

    specs = [
        (WeylType.A, 2),
        (WeylType.A, 3),
        (WeylType.A, 4),
        (WeylType.BC, 3),
        (WeylType.D, 3),
    ]
    for wtype, rank in specs:
        group = GroupDescriptor.simple(wtype, rank)
        lengths = bfs_lengths(group)
        closure = covering_closure(group)
        everyone = list(elements(group))
        for w in everyone:
            length_checks += 1
            if length(w) != lengths[w.window]:
                bad.append(("length", wtype.value, rank, w.window))
        for v in everyone:
            for w in everyone:
                order_checks += 1
                if bruhat_leq(v, w) != oracle_leq(closure, v, w):
                    bad.append(("order", wtype.value, rank, v.window, w.window))

    pool = list(elements(s3))
    for size in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            M = SubsetM(s3, combo)
            pts3, _ = orbit_points(M)
            pts2 = drop_last(pts3)
            pkg = {frozenset(e) for e in hull_edges(pts2).edges}
            sym = hull_edges_2d(pts2)
            for i, j in itertools.combinations(range(len(pts2)), 2):
                edge_checks += 1
                in_pkg = frozenset((i, j)) in pkg
                in_sym = frozenset((tuple(pts2[i]), tuple(pts2[j]))) in sym
                in_lp = lp_edge_feasible(pts2, i, j)
                if not (in_pkg == in_sym == in_lp):
                    bad.append(("edge", [list(w.window) for w in M], i, j, in_pkg, in_sym, in_lp))

    secs = time.perf_counter() - t0
    ok = not bad
    _report(
        11,
        ok,
        f"{length_checks} lengths, {order_checks} order pairs, "
        f"{edge_checks} edge calls: zero discrepancies",
        secs,
    )
    assert not bad, bad[:5]
