"""Coarsened chamber fans attached to a retraction table.

Each fiber S_y of a table (the chambers retracting onto a common target y)
gets the cone cut out by every root halfspace containing all its chambers:
a root normal beta survives exactly when every member chamber sees
u^-1 beta negative.  For tables coming from retractions the member union
is convex and the cone reproduces it exactly.

Lineality is reported modulo the always-present translation directions of
type A blocks (the per-block constant vectors), so "strongly convex" means
trivial lineality beyond those.  A table whose fibers disagree on that
reduced lineality is rejected as not defining a fan over a common space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import AmbiguousBoundary, InconsistentLineality
from .exact import (
    HalfspaceCone,
    Membership,
    Rat,
    canonical_subspace,
    cone_membership,
    nullspace_basis,
)
from .retraction import RetractionTable
from .weyl import (
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    act_on_vector,
    elements,
    inverse,
    is_negative_root_vector,
)


def _negated_simples(group: GroupDescriptor) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(-c for c in a) for a in group.simple_roots())


def chamber_cone(u: SignedPermutation) -> HalfspaceCone:
    """The closed chamber of u as a halfspace cone."""
    normals = tuple(
        act_on_vector(u, neg) for neg in _negated_simples(u.group)
    )
    return HalfspaceCone(normals=normals, dim=u.group.ambient_dim)


def _type_a_ones(group: GroupDescriptor) -> list[list[int]]:
    rows = []
    for off, f in group.segments():
        if f.type is WeylType.A:
            row = [0] * group.ambient_dim
            row[off : off + f.rank] = [1] * f.rank
            rows.append(row)
    return rows


def _reduced_lineality(
    group: GroupDescriptor, normals: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], ...]:
    rows = [list(b) for b in normals] + _type_a_ones(group)
    return nullspace_basis(rows, group.ambient_dim)


@dataclass(frozen=True)
class FanCone:
    target: SignedPermutation
    members: tuple[SignedPermutation, ...]
    cone: HalfspaceCone
    reduced_lineality: tuple[tuple[int, ...], ...]

    @property
    def strongly_convex(self) -> bool:
        return not self.reduced_lineality


@dataclass(frozen=True)
class Fan:
    table: RetractionTable
    cones: tuple[FanCone, ...]
    lineality: tuple[tuple[int, ...], ...]

    def cone_for(self, target: SignedPermutation) -> FanCone:
        for c in self.cones:
            if c.target.window == target.window:
                return c
        raise KeyError(f"no cone for target {list(target.window)}")

    @property
    def strongly_convex(self) -> bool:
        return all(c.strongly_convex for c in self.cones)

    def to_json(self) -> dict:
        return {
            "group": self.table.group.to_json(),
            "lineality": [list(v) for v in self.lineality],
            "cones": [
                {
                    "target": list(c.target.window),
                    "members": [list(u.window) for u in c.members],
                    "normals": [list(b) for b in c.cone.normals],
                    "strongly_convex": c.strongly_convex,
                }
                for c in self.cones
            ],
        }


def build_fan(table: RetractionTable) -> Fan:
    group = table.group
    fibers: dict[tuple[int, ...], list[SignedPermutation]] = {}
    for u, v in table.mapping:
        fibers.setdefault(v.window, []).append(u)
    cones = []
    dim = group.ambient_dim
    roots = group.all_roots()
    lineality_seen: list[tuple[SignedPermutation, tuple, tuple]] = []
    for y in table.targets:
        members = fibers.get(y.window, [])
        inverses = [inverse(u) for u in members]
        normals = tuple(
            beta
            for beta in roots
            if all(
                is_negative_root_vector(act_on_vector(iu, beta)) for iu in inverses
            )
        )
        lin = _reduced_lineality(group, normals)
        cones.append(
            FanCone(
                target=y,
                members=tuple(members),
                cone=HalfspaceCone(normals=normals, dim=dim),
                reduced_lineality=lin,
            )
        )
        lineality_seen.append((y, lin, canonical_subspace(lin, dim)))
    first_y, first_lin, first_canon = lineality_seen[0]
    for y, lin, canon in lineality_seen[1:]:
        if canon != first_canon:
            raise InconsistentLineality(
                f"target {list(first_y.window)} has lineality rank {len(first_lin)}"
                f" but {list(y.window)} has rank {len(lin)} or a different space"
            )
    return Fan(table=table, cones=tuple(cones), lineality=first_lin)


@dataclass(frozen=True)
class QueryResult:
    target: SignedPermutation
    grade: Membership
    chambers: tuple[SignedPermutation, ...]


def query(fan: Fan, lam: Sequence[Rat]) -> QueryResult:
    """Locate a point: the common image of every closed chamber containing
    it, graded interior/boundary against that image's cone.  A point whose
    chambers disagree on the image sits on a wall between fan cones and
    raises `AmbiguousBoundary`."""
    group = fan.table.group
    if len(lam) != group.ambient_dim:
        raise ValueError(f"point length {len(lam)} != {group.ambient_dim}")
    hit = [
        u
        for u in elements(group)
        if cone_membership(chamber_cone(u), lam) is not Membership.OUTSIDE
    ]
    images = {fan.table.retract(u).window for u in hit}
    if len(images) > 1:
        shown = sorted(list(w) for w in images)
        raise AmbiguousBoundary(f"point lies between targets {shown}")
    target = next(fan.table.retract(u) for u in hit)
    grade = cone_membership(fan.cone_for(target).cone, lam)
    if grade is Membership.OUTSIDE:
        raise AssertionError(
            f"point {list(lam)} lies outside the cone of its own target"
            f" {list(target.window)}"
        )
    return QueryResult(target=target, grade=grade, chambers=tuple(hit))


def members_connected(cone: FanCone) -> bool:
    """Whether the member chambers form a connected wall-adjacency graph
    (adjacent chambers differ by one simple reflection on the right)."""
    members = {u.window for u in cone.members}
    if not members:
        return True
    group = cone.target.group
    simples = group.simple_reflections()
    start = next(iter(members))
    seen = {start}
    frontier = [start]
    while frontier:
        cur = group.element(frontier.pop())
        for s in simples:
            nxt = (cur * s).window
            if nxt in members and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen == members
