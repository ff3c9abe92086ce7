import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import weylret.fan
import weylret.weyl
from oracles import chamber_cone, chambers_holding, fiber_normals, members_connected
from weylret.errors import AmbiguousBoundary, InconsistentLineality, PreconditionError
from weylret.exact import Membership, RationalMatrix, cone_membership
from weylret.fan import FanCone, _reduced_lineality, build_fan, query
from weylret.orbit import geometric_table, sample_rational_point
from weylret.matroid import bruhat_interval
from weylret.retraction import RetractionTable, SubsetM, closest_set, retraction_table
from weylret.weyl import (
    Factor,
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    act_on_vector,
    elements,
    length,
    longest_element,
    root_set,
)

DEMO_1 = RationalMatrix(((1, 1, 0), (1, 0, 1), (1, 0, 0)))
DEMO_2 = RationalMatrix(((1, 0, 1), (0, 1, 0), (1, 0, 0)))


@pytest.fixture(scope="module")
def fan1():
    return build_fan(geometric_table(DEMO_1))


@pytest.fixture(scope="module")
def fan2():
    return build_fan(geometric_table(DEMO_2))


def test_chamber_cone_contains_own_weight(s3):
    from weylret.orbit import weight_for_chamber

    for u in elements(s3):
        lam = weight_for_chamber(u)
        assert cone_membership(chamber_cone(u), lam) is Membership.INTERIOR
        for v in elements(s3):
            if v != u:
                assert (
                    cone_membership(chamber_cone(v), lam)
                    is Membership.OUTSIDE
                )


def test_fan1_shape(fan1, s3):
    assert len(fan1.cones) == 4
    assert fan1.strongly_convex
    assert fan1.lineality == ()
    groupings = {
        c.target.window: sorted(m.window for m in c.members)
        for c in fan1.cones
    }
    assert groupings == {
        (1, 2, 3): [(1, 2, 3)],
        (1, 3, 2): [(1, 3, 2)],
        (2, 1, 3): [(2, 1, 3), (2, 3, 1)],
        (3, 1, 2): [(3, 1, 2), (3, 2, 1)],
    }


def test_fan1_merged_cone_normals(fan1, s3):
    cone = fan1.cone_for(SignedPermutation(s3, (2, 1, 3)))
    assert set(cone.normals) == {(1, -1, 0), (0, -1, 1)}
    assert cone.strongly_convex
    assert members_connected(cone)


def test_fan2_shape(fan2, s3):
    assert len(fan2.cones) == 2
    assert not fan2.strongly_convex
    assert fan2.lineality == ((1, -2, 1),)
    groupings = {
        c.target.window: sorted(m.window for m in c.members)
        for c in fan2.cones
    }
    assert groupings == {
        (1, 2, 3): [(1, 2, 3), (1, 3, 2), (2, 1, 3)],
        (3, 2, 1): [(2, 3, 1), (3, 1, 2), (3, 2, 1)],
    }
    for c in fan2.cones:
        assert members_connected(c)


def test_fan2_cone_normals(fan2, s3):
    cone = fan2.cone_for(s3.identity())
    assert set(cone.normals) == {(-1, 0, 1)}


def test_query_interior(fan1, s3):
    res = query(fan1, (1, -2, 1))
    assert res.target.window == (2, 1, 3)
    assert res.grade is Membership.INTERIOR
    assert sorted(u.window for u in res.chambers) == [(2, 1, 3), (2, 3, 1)]


def test_query_raises_when_target_cone_misses_point(fan1, s3, monkeypatch):
    wrong = next(c for c in fan1.cones if c.target.window != (2, 1, 3))
    monkeypatch.setattr(type(fan1), "cone_for", lambda self, target: wrong)
    with pytest.raises(AssertionError, match="outside the cone"):
        query(fan1, (1, -2, 1))


def test_query_generic_point_every_chamber(fan1, fan2, s3):
    from weylret.orbit import weight_for_chamber

    for fan in (fan1, fan2):
        for u in elements(s3):
            res = query(fan, weight_for_chamber(u))
            assert res.target == fan.table.retract(u)
            assert res.chambers == (u,)


def test_query_origin_ambiguous(fan1):
    with pytest.raises(AmbiguousBoundary):
        query(fan1, (0, 0, 0))


def test_query_wall_between_cones(fan2):
    # ties between chambers mapping to different targets, before and
    # after scaling to integers
    for lam in ((0, 1, 0), (0, Fraction(1, 2), 0)):
        with pytest.raises(AmbiguousBoundary):
            query(fan2, lam)


def test_query_interior_wall_is_merged(fan2, s3):
    # the wall between chambers 123 and 132 is interior to the merged cone
    res = query(fan2, (-1, 1, 1))
    assert res.target == s3.identity()
    assert res.grade is Membership.INTERIOR
    assert sorted(u.window for u in res.chambers) == [(1, 2, 3), (1, 3, 2)]


@pytest.fixture(scope="module")
def fan_s4():
    return build_fan(geometric_table(sample_rational_point(4, seed=3, kind="sparse")))


def _answer(fan, lam):
    try:
        res = query(fan, lam)
    except AmbiguousBoundary:
        return AmbiguousBoundary
    return res.target, res.grade, res.chambers


@pytest.mark.parametrize("name", ["fan1", "fan2", "fan_s4"])
def test_query_invariant_under_positive_scaling(name, request):
    fan = request.getfixturevalue(name)
    n = fan.table.group.ambient_dim
    # few distinct values, so many points land on walls and ties
    values = [Fraction(v, d) for v in range(-2, 3) for d in (1, 2, 3)]
    rng = random.Random(n)
    seen = set()
    for _ in range(60):
        lam = tuple(rng.choice(values) for _ in range(n))
        want = _answer(fan, lam)
        seen.add(want is AmbiguousBoundary)
        for k in (2, math.lcm(*(x.denominator for x in lam))):
            assert _answer(fan, tuple(k * x for x in lam)) == want
    assert seen == {True, False}


def test_query_tests_chambers_on_integers(fan1, monkeypatch):
    # both the walk's wall tests and the grade's cone test
    points = {"walls": [], "grade": []}
    real_walls = weylret.weyl._wall_dots
    real_grade = weylret.fan.cone_membership

    def walls_spy(u, walls, point):
        points["walls"].append(point)
        return real_walls(u, walls, point)

    def grade_spy(normals, point):
        points["grade"].append(point)
        return real_grade(normals, point)

    monkeypatch.setattr(weylret.weyl, "_wall_dots", walls_spy)
    monkeypatch.setattr(weylret.fan, "cone_membership", grade_spy)
    res = query(fan1, (Fraction(1, 3), Fraction(-2, 3), Fraction(1, 3)))
    assert res.target.window == (2, 1, 3)
    for seen in points.values():
        assert seen and all(type(x) is int for p in seen for x in p)


def test_query_tests_at_most_a_walk_of_chambers(monkeypatch):
    # the full-group table has one chamber per cone, 384 in all
    bc4 = GroupDescriptor.simple(WeylType.BC, 4)
    fan = build_fan(retraction_table(SubsetM(bc4, elements(bc4))))
    tested = set()
    real = weylret.weyl._wall_dots

    def spy(u, walls, point):
        tested.add(u.window)
        return real(u, walls, point)

    monkeypatch.setattr(weylret.weyl, "_wall_dots", spy)
    w0 = longest_element(bc4)
    bound = length(w0) + 1
    # x1 < x2 < x3 < x4 < 0 is interior to the chamber of the identity
    anti_dominant = (-4, -3, -2, -1)
    for u in (w0, bc4.identity(), *random.Random(4).sample(elements(bc4), 6)):
        tested.clear()
        res = query(fan, act_on_vector(u, anti_dominant))
        assert res.chambers == (u,) and res.grade is Membership.INTERIOR
        assert len(tested) <= bound
        # the walk from the identity to w0 crosses every root hyperplane
        assert (len(tested) == bound) == (u == w0)


def test_query_dimension_check(fan1):
    with pytest.raises(PreconditionError, match="point length 2 != 3"):
        query(fan1, (1, 0))


def test_inconsistent_lineality_rejected(s3):
    targets = (
        SignedPermutation(s3, (1, 2, 3)),
        SignedPermutation(s3, (3, 2, 1)),
    )
    images = {
        (1, 2, 3): (1, 2, 3),
        (2, 3, 1): (1, 2, 3),
        (1, 3, 2): (3, 2, 1),
        (2, 1, 3): (3, 2, 1),
        (3, 1, 2): (3, 2, 1),
        (3, 2, 1): (3, 2, 1),
    }
    table = RetractionTable(
        s3, targets, [SignedPermutation(s3, images[u.window]) for u in elements(s3)]
    )
    with pytest.raises(InconsistentLineality):
        build_fan(table)


def test_lineality_spaces_of_equal_rank_must_agree():
    """A1 x A1 x A1 with fibers of two chambers, chosen by the block signs
    (x, y, z): by (x, y) where x > 0, so their lines lie along z, and by
    (x, z) where x < 0, so their lines lie along y.  Every cone has
    lineality rank 1, and only the spaces differ."""
    group = GroupDescriptor((Factor(WeylType.A, 2),) * 3)

    def fiber(u):
        x, y, z = (u.window[2 * k] < u.window[2 * k + 1] for k in range(3))
        return (x, y) if x else (x, z)

    targets = {}
    for u in elements(group):
        targets.setdefault(fiber(u), u)
    images = [targets[fiber(u)] for u in elements(group)]
    table = RetractionTable(group, tuple(targets.values()), images)
    with pytest.raises(InconsistentLineality, match="rank 1 but .* rank 1 or"):
        build_fan(table)


def test_disconnected_members_detected(fan1, s3):
    cone = fan1.cone_for(SignedPermutation(s3, (2, 1, 3)))
    fake = FanCone(
        target=cone.target,
        members=(s3.identity(), SignedPermutation(s3, (3, 2, 1))),
        normals=cone.normals,
        reduced_lineality=cone.reduced_lineality,
    )
    assert not members_connected(fake)


def test_fan_json_shape(fan2):
    data = fan2.to_json()
    assert data["lineality"] == [list(v) for v in fan2.lineality]
    assert len(data["cones"]) == 2
    assert all(not c["strongly_convex"] for c in data["cones"])


def test_fan_bc2_full_group(bc2):
    M = SubsetM(bc2, elements(bc2))
    fan = build_fan(retraction_table(M))
    assert len(fan.cones) == 8
    assert fan.strongly_convex
    for c in fan.cones:
        assert c.members == (c.target,)
        # every root halfspace containing the chamber, redundancy included
        assert len(c.normals) == len(bc2.positive_roots())


_A, _BC, _D = WeylType.A, WeylType.BC, WeylType.D
_ORACLE_GROUPS = {
    "A3": GroupDescriptor((Factor(_A, 4),)),
    "BC3": GroupDescriptor((Factor(_BC, 3),)),
    "D4": GroupDescriptor((Factor(_D, 4),)),
    "A1xBC2": GroupDescriptor((Factor(_A, 2), Factor(_BC, 2))),
}
# few distinct values, so ties and zero coordinates are common
_COORDS = st.sampled_from((-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2)))


@st.composite
def greedy_fans(draw, group):
    """The fan of the greedy table of a random product subset of group."""
    picks = draw(st.lists(st.sampled_from(elements(group)), min_size=1, max_size=5))
    try:
        return build_fan(retraction_table(_product_subset(group, picks)))
    except InconsistentLineality:
        assume(False)


def _product_subset(group, picks) -> SubsetM:
    """Every combination of the picks' factor windows, so M is a product."""
    parts = [
        sorted({w.window[off : off + f.rank] for w in picks}) for off, f in group.segments()
    ]
    return SubsetM(
        group,
        tuple(group.element(sum(combo, ())) for combo in itertools.product(*parts)),
    )


def _oracle_answer(fan, lam):
    chambers = chambers_holding(fan.table.group, lam)
    images = {fan.table.retract(u) for u in chambers}
    if len(images) > 1:
        return AmbiguousBoundary
    (target,) = images
    return target, cone_membership(fan.cone_for(target).normals, lam), chambers


@pytest.mark.parametrize("name", _ORACLE_GROUPS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_query_matches_the_chamber_scan(name, data):
    group = _ORACLE_GROUPS[name]
    fan = data.draw(greedy_fans(group))
    dim = group.ambient_dim
    for _ in range(6):
        lam = tuple(data.draw(st.lists(_COORDS, min_size=dim, max_size=dim)))
        assert _answer(fan, lam) == _oracle_answer(fan, lam)


@pytest.mark.parametrize("name", _ORACLE_GROUPS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_build_fan_normals_match_the_root_scan(name, data):
    group = _ORACLE_GROUPS[name]
    fan = data.draw(greedy_fans(group))
    assert [c.target for c in fan.cones] == list(fan.table.targets)
    for c in fan.cones:
        fiber = tuple(u for u, v in fan.table.mapping if v == c.target)
        assert c.members == fiber
        assert c.normals == fiber_normals(group, fiber)
        assert c.reduced_lineality == _reduced_lineality(group, c.normals)


def _fan_or_refusal(table):
    try:
        return build_fan(table)
    except InconsistentLineality as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["BC3", "D4", "A1xBC2"])
def test_build_fan_agrees_with_uncached_root_sets(name, monkeypatch):
    group = _ORACLE_GROUPS[name]
    rng = random.Random(22)
    tables = [
        retraction_table(_product_subset(group, rng.sample(elements(group), rng.randint(1, 5))))
        for _ in range(8)
    ]
    cached = [_fan_or_refusal(t) for t in tables]
    monkeypatch.setattr(weylret.fan, "root_set", root_set.__wrapped__)
    assert [_fan_or_refusal(t) for t in tables] == cached


def test_root_set_cache_is_shared_and_bounded_on_a_bc5_table():
    """After `closest_set` at every base element of BC5, `build_fan` finds
    every chamber's root set in the cache, and the cache holds no more
    than its bound."""
    group = GroupDescriptor.simple(_BC, 5)
    M = SubsetM(group, bruhat_interval(group.identity(), group.element((2, -4, 1, 5, -3))))
    table = retraction_table(M)
    for u in elements(group):
        closest_set(M, u)
    before = root_set.cache_info()
    fan = build_fan(table)
    after = root_set.cache_info()
    assert len(fan.cones) == len(M)
    assert after.misses == before.misses
    assert after.hits - before.hits == group.order()
    assert after.maxsize is not None and after.currsize <= after.maxsize
