import itertools
import os
import random
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylret
from oracles import covering_closure, oracle_leq
from weylret.errors import BoundaryPoint, NotAMatroidAt, PreconditionError
from weylret.exact import Hull, certifies_edge, hull_edges, lp_edge_feasible
from weylret.matroid import (
    bruhat_interval,
    default_base_point,
    fano_matroid_s7,
    flag_order_leq,
    is_coxeter_matroid,
    orbit_points,
    phi_polytope_check,
    set_order_leq,
    two_element_analysis,
)
from weylret import retraction
from weylret.retraction import SubsetM, _extremal_elements, matroid_retract
from weylret.suites import run_suite
from weylret.weyl import (
    Factor,
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    chamber_of,
    compose,
    elements,
    inverse,
)


def subset(group, *windows) -> SubsetM:
    return SubsetM.from_windows(group, windows)


# --- order route ------------------------------------------------------------


def test_trivial_matroids(s3, s4, bc2, d3):
    for g in (s3, s4, bc2, d3):
        full = SubsetM(g, elements(g))
        assert is_coxeter_matroid(full).is_matroid
        assert is_coxeter_matroid(full, side="min").is_matroid
        for w in list(elements(g))[:4]:
            assert is_coxeter_matroid(SubsetM(g, (w,))).is_matroid


def test_two_incomparable_elements_fail(s3):
    M = subset(s3, (2, 1, 3), (1, 3, 2))
    for side in ("min", "max"):
        verdict = is_coxeter_matroid(M, side=side)
        assert not verdict.is_matroid
        assert verdict.failures
        u, ext = verdict.failures[0]
        assert len(ext) == 2


def test_verdict_side_validation(s3):
    with pytest.raises(ValueError):
        is_coxeter_matroid(subset(s3, (1, 2, 3)), side="best")


def test_min_and_max_verdicts_agree(s3, bc2):
    rng = random.Random(31)
    for g in (s3, bc2):
        pool = list(elements(g))
        for _ in range(40):
            M = SubsetM(g, tuple(rng.sample(pool, rng.randint(1, len(pool)))))
            assert (
                is_coxeter_matroid(M, side="max").is_matroid
                == is_coxeter_matroid(M, side="min").is_matroid
            )


# --- polytope route ---------------------------------------------------------


def test_default_base_point_lies_in_identity_chamber():
    for typ, rank in [("A", 4), ("BC", 3), ("D", 3), ("D", 4)]:
        g = GroupDescriptor.simple(typ, rank)
        assert chamber_of(default_base_point(g), g) == g.identity()


def test_orbit_points_rejects_wrong_chamber(bc2):
    M = SubsetM(bc2, elements(bc2))
    # regular, but in another chamber: it would test a right translate
    with pytest.raises(PreconditionError):
        orbit_points(M, (1, 2))
    with pytest.raises(BoundaryPoint):
        orbit_points(M, (3, 3))


def test_phi_full_group_and_pairs(s3):
    full = phi_polytope_check(SubsetM(s3, elements(s3)))
    assert full.is_phi
    assert len(full.vertices) == 6 and len(full.edges) == 6
    bad = phi_polytope_check(subset(s3, (2, 1, 3), (1, 3, 2)))
    assert not bad.is_phi
    assert len(bad.offending) == 1
    good = phi_polytope_check(subset(s3, (1, 2, 3), (2, 1, 3)))
    assert good.is_phi and len(good.edges) == 1


def test_phi_three_point_plane_in_s4(s4):
    # triangle with one side not parallel to any root
    M = subset(s4, (1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3))
    report = phi_polytope_check(M)
    assert not report.is_phi
    assert {frozenset((a.window, b.window)) for a, b in report.offending} == {
        frozenset({(2, 1, 3, 4), (1, 2, 4, 3)})
    }


def test_phi_bc2_missing_two_chambers_regression(bc2):
    # with the base point in the identity chamber, the hull of this subset
    # closes along a root direction and both routes accept it
    M = subset(bc2, (1, 2), (1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1))
    assert is_coxeter_matroid(M).is_matroid
    report = phi_polytope_check(M)
    assert report.is_phi, report.offending


def test_order_and_polytope_routes_agree_exhaustively_s3(s3):
    pool = list(elements(s3))
    for size in range(1, 7):
        for combo in itertools.combinations(pool, size):
            M = SubsetM(s3, combo)
            assert (
                is_coxeter_matroid(M).is_matroid
                == phi_polytope_check(M).is_phi
            ), [w.window for w in M]


def test_order_and_polytope_routes_agree_exhaustively_bc2(bc2):
    pool = list(elements(bc2))
    for size in range(1, 9):
        for combo in itertools.combinations(pool, size):
            M = SubsetM(bc2, combo)
            assert (
                is_coxeter_matroid(M).is_matroid
                == phi_polytope_check(M).is_phi
            ), [w.window for w in M]


# --- shifted orders ---------------------------------------------------------


def test_set_order_hand_values(s3):
    u = s3.identity()
    assert set_order_leq((1,), (2,), u)
    assert not set_order_leq((2,), (1,), u)
    assert set_order_leq((1, 3), (2, 3), u)
    rev = SignedPermutation(s3, (3, 2, 1))
    assert set_order_leq((2,), (1,), rev)


@pytest.mark.parametrize("fixture", ["s3", "bc2"])
def test_flag_order_equals_shifted_bruhat(fixture, request):
    g = request.getfixturevalue(fixture)
    closure = covering_closure(g)
    pool = list(elements(g))
    for u in pool:
        iu = inverse(u)
        for v in pool:
            for w in pool:
                assert flag_order_leq(v, w, u) == oracle_leq(
                    closure, compose(iu, v), compose(iu, w)
                ), (u.window, v.window, w.window)


def test_flag_order_rejects_type_d(d3):
    e = d3.identity()
    with pytest.raises(ValueError):
        flag_order_leq(e, e, e)


def test_bruhat_interval_vs_oracle(s4, bc2):
    rng = random.Random(33)
    for g in (s4, bc2):
        closure = covering_closure(g)
        pool = list(elements(g))
        for _ in range(10):
            v, w = rng.choice(pool), rng.choice(pool)
            got = {x.window for x in bruhat_interval(v, w)}
            want = {
                x.window
                for x in pool
                if oracle_leq(closure, v, x) and oracle_leq(closure, x, w)
            }
            assert got == want


# --- named subsets ----------------------------------------------------------


def test_fano_matroid_shape():
    M = fano_matroid_s7()
    assert len(M) == 4032
    assert M.group.window_length == 7
    wins = {w.window[:3] for w in M}
    # no window opens with a line of the plane, in any order
    assert (1, 2, 4) not in {tuple(sorted(t)) for t in wins}
    assert any(w.window == (1, 2, 3, 4, 5, 6, 7) for w in M)


def _traced_peak_mib(fn) -> float:
    """Peak of Python and numpy allocations during fn(), after one warm-up
    call that fills the caches it keeps (group elements, prefix sets)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_order_route_memory_stays_bounded():
    # the batched dominance test holds one chunk of base elements at a time
    fano = fano_matroid_s7()
    assert _traced_peak_mib(lambda: is_coxeter_matroid(fano)) <= 16.0
    d4 = GroupDescriptor.simple(WeylType.D, 4)
    interval = SubsetM(d4, bruhat_interval(d4.identity(), d4.element((1, -3, -2, 4))))
    assert len(interval) == 20
    assert _traced_peak_mib(lambda: is_coxeter_matroid(interval)) <= 4.0
    assert is_coxeter_matroid(interval).is_matroid


def test_d_chunks_count_distinct_prefix_sets():
    # parity keys are taken per distinct prefix set, so a D chunk's size
    # follows M's prefix sets, not its member count
    d4 = GroupDescriptor.simple(WeylType.D, 4)
    interval = SubsetM(d4, bruhat_interval(d4.identity(), d4.element((1, -3, -2, 4))))
    assert retraction._batch_size(interval) > 12

    def sets(M):
        return [s.tolist() for levels in M.prefix_sets for s in levels]

    fewer = list(interval)
    for w in interval:
        trial = SubsetM(d4, tuple(v for v in fewer if v != w))
        if sets(trial) == sets(interval):
            fewer = list(trial)
    assert len(fewer) < len(interval)
    assert retraction._batch_size(SubsetM(d4, tuple(fewer))) == retraction._batch_size(interval)


def test_order_route_memory_stays_bounded_when_most_bases_fail():
    # the scan takes the failures of a chunk of base elements together, in
    # chunks of (base element, row) pairs under one budget
    group = GroupDescriptor((Factor(WeylType.A, 2), Factor(WeylType.BC, 4)))
    pool = elements(group)
    M = SubsetM(group, tuple(random.Random(12).sample(pool, 200)))
    verdict = is_coxeter_matroid(M)
    assert 2 * len(verdict.failures) > len(pool)
    assert _traced_peak_mib(lambda: is_coxeter_matroid(M)) <= 8.0
    # and so does the scan itself, handed every base element at once
    assert _traced_peak_mib(lambda: _extremal_elements(M, pool, "max")) <= 8.0


def test_two_element_hand_values(s4):
    x = SignedPermutation(s4, (2, 1, 4, 3))
    y = SignedPermutation(s4, (4, 3, 1, 2))
    rep = two_element_analysis(x, y)
    assert rep.agree
    assert not rep.closest_route
    assert not rep.matroid_route
    assert not rep.reflection_route
    x = SignedPermutation(s4, (1, 2, 3, 4))
    y = SignedPermutation(s4, (4, 2, 3, 1))
    rep = two_element_analysis(x, y)
    assert rep.agree
    assert rep.closest_route and rep.matroid_route and rep.reflection_route


# --- one extremum scan behind both callers ----------------------------------

_SMALL_GROUPS = [
    GroupDescriptor.simple(WeylType.A, 3),
    GroupDescriptor.simple(WeylType.BC, 2),
    GroupDescriptor.simple(WeylType.D, 3),
]


@st.composite
def small_subsets(draw):
    group = draw(st.sampled_from(_SMALL_GROUPS))
    pool = list(elements(group))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    return SubsetM(group, tuple(picks))


@settings(max_examples=30, deadline=None)
@given(M=small_subsets(), side=st.sampled_from(("min", "max")))
def test_verdict_failures_are_exactly_the_retract_failures(M, side):
    failures = {
        u.window: tuple(v.window for v in ext)
        for u, ext in is_coxeter_matroid(M, side=side).failures
    }
    raised = {}
    for u in elements(M.group):
        try:
            matroid_retract(M, u, side=side, greedy_first=False)
        except NotAMatroidAt as exc:
            raised[u.window] = tuple(v.window for v in exc.minimals)
    assert raised == failures


# --- the LP edge test against the hull, past the runtime cross-check ---------

# each group with the most members a drawn subset may have; the rank-4
# groups stay at 10 so the all-pairs LP stays cheap
_ORBIT_GROUPS = [
    (GroupDescriptor.simple(WeylType.A, 4), 12),
    (GroupDescriptor.simple(WeylType.BC, 3), 12),
    (GroupDescriptor.simple(WeylType.D, 3), 12),
    (GroupDescriptor.simple(WeylType.A, 5), 10),
    (GroupDescriptor.simple(WeylType.BC, 4), 10),
    (GroupDescriptor.simple(WeylType.D, 4), 10),
]


@st.composite
def orbit_subsets(draw, cap=None):
    group, most = draw(st.sampled_from(_ORBIT_GROUPS))
    pool = list(elements(group))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=cap or most, unique=True))
    return SubsetM(group, tuple(picks))


@settings(max_examples=40, deadline=None)
@given(M=orbit_subsets())
def test_lp_edge_feasible_equals_hull_edges_on_orbits(M):
    # phi_polytope_check runs this on every pair only up to
    # LP_CROSSCHECK_LIMIT points; here it runs on up to 12
    points, _ = orbit_points(M)
    edge_set = set(hull_edges(points).edges)
    for i, j in itertools.combinations(range(len(points)), 2):
        assert lp_edge_feasible(points, i, j) == ((i, j) in edge_set), (M, i, j)


@settings(max_examples=40, deadline=None)
@given(M=orbit_subsets(cap=60))
def test_edge_certificates_are_tight_on_their_edge_alone(M):
    points, _ = orbit_points(M)
    hull = hull_edges(points)
    edge_set = set(hull.edges)
    for i, j in itertools.combinations(range(len(points)), 2):
        normal, offset = hull.edge_certificate(i, j)
        values = [sum(a * b for a, b in zip(normal, p)) for p in points]
        tight = {k for k, v in enumerate(values) if v == offset}
        assert max(values) == offset
        assert (tight == {i, j}) == ((i, j) in edge_set), (M, i, j)
        assert certifies_edge(points, i, j, normal, offset) == ((i, j) in edge_set)


def test_phi_raises_on_a_failed_certificate(s4, monkeypatch):
    # the zero functional is tight on all three points, not on the
    # offending edge alone
    monkeypatch.setattr(Hull, "edge_certificate", lambda self, i, j: ((0, 0, 0, 0), 0))
    M = subset(s4, (1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3))
    with pytest.raises(AssertionError, match="facet-normal certificate"):
        phi_polytope_check(M)


def test_phi_lp_crosscheck_scales_once_and_runs_on_every_pair(s3, monkeypatch):
    # a fractional base point: the orbit is scaled to integers once, and
    # every pair of the orbit still goes to the LP
    calls = []
    core = weylret.matroid._lp_edge_feasible

    def counted(pts, i, j):
        calls.append((pts, i, j))
        return core(pts, i, j)

    monkeypatch.setattr(weylret.matroid, "_lp_edge_feasible", counted)
    M = SubsetM(s3, elements(s3))
    report = phi_polytope_check(M, (Fraction(0), Fraction(1, 2), Fraction(4, 3)))
    assert report.is_phi and len(report.edges) == 6
    assert [(i, j) for _, i, j in calls] == list(itertools.combinations(range(6), 2))
    scaled = calls[0][0]
    assert all(pts is scaled for pts, _, _ in calls)
    assert all(type(v) is int for p in scaled for v in p)


def test_gs_rank4_suite_small():
    t0 = time.perf_counter()
    res = run_suite("gs-rank4", count=2, seed=0)
    secs = time.perf_counter() - t0
    # 2 random subsets and 1 Bruhat interval in each of S5, BC4 and D4
    assert res.passed, res.failures
    assert res.checks == 9
    assert secs < 10.0


# --- invariants survive python -O --------------------------------------------


def test_phi_vertex_invariant_raises_under_optimize():
    script = textwrap.dedent(
        """
        from dataclasses import replace

        import weylret.matroid as m
        from weylret.retraction import SubsetM
        from weylret.weyl import GroupDescriptor, WeylType, elements

        real = m.hull_edges

        def drop_first_vertex(points):
            hull = real(points)
            gone = hull.vertices[0]
            edges = [e for e in hull.edges if gone not in e]
            return replace(hull, vertices=hull.vertices[1:], edges=edges)

        m.hull_edges = drop_first_vertex
        s4 = GroupDescriptor.simple(WeylType.A, 4)
        try:
            m.phi_polytope_check(SubsetM(s4, tuple(elements(s4))))
        except AssertionError as exc:
            print("raised:", exc)
        else:
            print("no raise")
        print("debug:", __debug__)
        """
    )
    src = str(Path(weylret.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "debug: False" in proc.stdout
    assert "raised: regular orbit point was not a hull vertex" in proc.stdout
