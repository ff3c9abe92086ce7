import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylret
from oracles import covering_closure, oracle_leq
from weylret.errors import BoundaryPoint, NotAMatroidAt, PreconditionError
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
from weylret.retraction import SubsetM, matroid_retract
from weylret.weyl import (
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


# --- invariants survive python -O --------------------------------------------


def test_phi_vertex_invariant_raises_under_optimize():
    script = textwrap.dedent(
        """
        import weylret.matroid as m
        from weylret.retraction import SubsetM
        from weylret.weyl import GroupDescriptor, WeylType, elements

        real = m.hull_edges

        def drop_first_vertex(points):
            verts, edges = real(points)
            gone = verts[0]
            return verts[1:], [e for e in edges if gone not in e]

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
