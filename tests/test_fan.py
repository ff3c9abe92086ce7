import pytest

from weylret.errors import AmbiguousBoundary, InconsistentLineality
from weylret.exact import Membership, RationalMatrix, canonical_subspace
from weylret.fan import (
    FanCone,
    build_fan,
    chamber_cone,
    members_connected,
    query,
)
from weylret.orbit import geometric_table
from weylret.retraction import RetractionTable, SubsetM, retraction_table
from weylret.weyl import SignedPermutation, elements

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
    from weylret.exact import cone_membership

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
    assert set(cone.cone.normals) == {(1, -1, 0), (0, -1, 1)}
    assert cone.strongly_convex
    assert members_connected(cone)


def test_fan2_shape(fan2, s3):
    assert len(fan2.cones) == 2
    assert not fan2.strongly_convex
    assert canonical_subspace(fan2.lineality, 3) == canonical_subspace(
        [(1, -2, 1)], 3
    )
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
    assert set(cone.cone.normals) == {(-1, 0, 1)}


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
    # ties between chambers mapping to different targets
    with pytest.raises(AmbiguousBoundary):
        query(fan2, (0, 1, 0))


def test_query_interior_wall_is_merged(fan2, s3):
    # the wall between chambers 123 and 132 is interior to the merged cone
    res = query(fan2, (-1, 1, 1))
    assert res.target == s3.identity()
    assert res.grade is Membership.INTERIOR
    assert sorted(u.window for u in res.chambers) == [(1, 2, 3), (1, 3, 2)]


def test_query_dimension_check(fan1):
    with pytest.raises(ValueError):
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
        s3,
        targets,
        tuple(
            (u, SignedPermutation(s3, images[u.window])) for u in elements(s3)
        ),
    )
    with pytest.raises(InconsistentLineality):
        build_fan(table)


def test_disconnected_members_detected(fan1, s3):
    cone = fan1.cone_for(SignedPermutation(s3, (2, 1, 3)))
    fake = FanCone(
        target=cone.target,
        members=(s3.identity(), SignedPermutation(s3, (3, 2, 1))),
        cone=cone.cone,
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
        assert len(c.cone.normals) == len(bc2.positive_roots())
