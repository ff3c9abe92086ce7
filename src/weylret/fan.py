"""Coarsened chamber fans attached to a retraction table.

Each fiber S_y of a table (the chambers retracting onto a common target y)
gets the cone cut out by every root halfspace containing all its chambers:
a root normal beta survives exactly when every member chamber sees
u^-1 beta negative, that is when beta lies in the root set
{u(gamma) : gamma negative} of every member.  Each member's root set is
one bitmask over `all_roots()` (`weyl.root_set`, whose per-group index the
metric route of `retraction` shares), and the fiber's normals are the
bits of their intersection, in `all_roots()` order.  A `FanCone` holds
those normals as they are, the cone being {x : <n, x> >= 0 for each n}.
For tables coming from retractions the member union is convex and the
cone reproduces it exactly.

A query never scans the group: `weyl.closed_chambers` walks from the
identity chamber across walls to the chambers that hold the point, and
`exact.cone_membership` grades the point against its target's normals.

Lineality is reported modulo the always-present translation directions of
type A blocks (the per-block constant vectors), so "strongly convex" means
trivial lineality beyond those.  A table whose fibers disagree on that
reduced lineality is rejected as not defining a fan over a common space.
Each fiber's reduced lineality is the `exact.nullspace_basis` of its
normals and those constant vectors.  That basis is read off the RREF, so
it depends only on the space, and the fibers' bases are compared as they
are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import AmbiguousBoundary, InconsistentLineality, PreconditionError
from .exact import Membership, Rat, clear_denominators, cone_membership, nullspace_basis
from .retraction import RetractionTable
from .weyl import (
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    _sparse_roots,
    closed_chambers,
    root_set,
)


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
    """The cone of one fiber: the chambers `members` that retract onto
    `target`, and the cone {x : <n, x> >= 0 for n in normals} that holds
    them, with its lineality reduced modulo the type A constant vectors."""

    target: SignedPermutation
    members: tuple[SignedPermutation, ...]
    normals: tuple[tuple[int, ...], ...]
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
                    "normals": [list(b) for b in c.normals],
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
    roots = _sparse_roots(group)[0]
    everything = (1 << len(roots)) - 1
    for y in table.targets:
        members = fibers.get(y.window, [])
        common = everything
        for u in members:
            common &= root_set(u)
        normals = tuple(beta for bit, beta in enumerate(roots) if common >> bit & 1)
        # one chamber's normals u(negative roots) span the root space, which
        # with the constant vectors of the type A blocks is everything
        lin = () if len(members) == 1 else _reduced_lineality(group, normals)
        cones.append(
            FanCone(
                target=y,
                members=tuple(members),
                normals=normals,
                reduced_lineality=lin,
            )
        )
    first = cones[0].reduced_lineality
    for c in cones[1:]:
        if c.reduced_lineality != first:
            raise InconsistentLineality(
                f"target {list(cones[0].target.window)} has lineality rank {len(first)}"
                f" but {list(c.target.window)} has rank {len(c.reduced_lineality)}"
                " or a different space"
            )
    return Fan(table=table, cones=tuple(cones), lineality=first)


@dataclass(frozen=True)
class QueryResult:
    target: SignedPermutation
    grade: Membership
    chambers: tuple[SignedPermutation, ...]


def query(fan: Fan, lam: Sequence[Rat]) -> QueryResult:
    """Locate a point: the common image of every closed chamber containing
    it, graded interior/boundary against that image's cone.  A point whose
    chambers disagree on the image sits on a wall between fan cones and
    raises `AmbiguousBoundary`.

    The point is first scaled to integers by the lcm of its denominators.
    The scaling is positive, so every sign test, and with it the chambers,
    the target and the grade, comes out as for the point itself, while the
    tests run on integers.  The chambers are those of
    `weyl.closed_chambers`, in enumeration order."""
    group = fan.table.group
    if len(lam) != group.ambient_dim:
        raise PreconditionError(f"point length {len(lam)} != {group.ambient_dim}")
    point = clear_denominators(lam)
    hit = closed_chambers(point, group)
    images = {fan.table.retract(c).window for c in hit}
    if len(images) > 1:
        shown = sorted(list(w) for w in images)
        raise AmbiguousBoundary(f"point lies between targets {shown}")
    target = fan.table.retract(hit[0])
    grade = cone_membership(fan.cone_for(target).normals, point)
    if grade is Membership.OUTSIDE:
        raise AssertionError(
            f"point {list(lam)} lies outside the cone of its own target"
            f" {list(target.window)}"
        )
    return QueryResult(target=target, grade=grade, chambers=hit)
