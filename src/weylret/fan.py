"""Coarsened chamber fans attached to a retraction table.

Each fiber S_y of a table (the chambers retracting onto a common target y)
gets the cone cut out by every root halfspace containing all its chambers:
a root normal beta survives exactly when every member chamber sees
u^-1 beta negative, that is when beta lies in the root set
{u(gamma) : gamma negative} of every member.  Each member's root set is
one bitmask over `all_roots()` (`weyl.root_set`, whose per-group index the
metric route of `retraction` shares), and the fiber's normals are the
bits of their intersection, in `all_roots()` order.  For tables coming from
retractions the member union is convex and the cone reproduces it
exactly.

A query never scans the group: it walks from the identity chamber across
walls that have the point on their far side, at most l(w0) steps, and then
collects the star of the walls through the point, the chambers reached
across walls that contain it.

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
from functools import cached_property
from typing import Sequence

from .errors import AmbiguousBoundary, InconsistentLineality, PreconditionError
from .exact import (
    HalfspaceCone,
    Membership,
    Rat,
    clear_denominators,
    cone_membership,
    nullspace_basis,
)
from .retraction import RetractionTable
from .weyl import (
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    _sparse_roots,
    act_on_vector,
    compose,
    order_key,
    root_set,
)


def _negated_simples(group: GroupDescriptor) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(-c for c in a) for a in group.simple_roots())


def chamber_cone(u: SignedPermutation) -> HalfspaceCone:
    """The closed chamber of u as a halfspace cone."""
    normals = tuple(act_on_vector(u, neg) for neg in _negated_simples(u.group))
    return HalfspaceCone(normals=normals)


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

    @cached_property
    def _walls(self) -> tuple[tuple, tuple[SignedPermutation, ...]]:
        """For each simple root alpha_k, the nonzero entries (i, c) of
        -alpha_k and the simple reflection s_k: what `query` walks with,
        built on the first query of this fan."""
        group = self.table.group
        walls = tuple(
            tuple((i, c) for i, c in enumerate(neg) if c) for neg in _negated_simples(group)
        )
        return walls, group.simple_reflections()

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
                cone=HalfspaceCone(normals=normals),
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


def _wall_dots(
    u: SignedPermutation,
    walls: Sequence[Sequence[tuple[int, int]]],
    point: Sequence[int],
) -> list[int]:
    """<u(-alpha_k), point> for each simple root alpha_k, in order, with
    walls[k] the nonzero entries (i, c) of -alpha_k: the point lies in the
    closed chamber of u iff none is negative, and a zero puts it on the
    wall that chamber shares with the chamber of u s_k.  Computed as
    <-alpha_k, u^-1 point>, since u is orthogonal."""
    pulled = [point[v - 1] if v > 0 else -point[-v - 1] for v in u.window]
    dots = []
    for wall in walls:
        d = 0
        for i, c in wall:
            d += c * pulled[i]
        dots.append(d)
    return dots


def query(fan: Fan, lam: Sequence[Rat]) -> QueryResult:
    """Locate a point: the common image of every closed chamber containing
    it, graded interior/boundary against that image's cone.  A point whose
    chambers disagree on the image sits on a wall between fan cones and
    raises `AmbiguousBoundary`.

    The point is first scaled to integers by the lcm of its denominators.
    The scaling is positive, so every sign test, and with it the chambers,
    the target and the grade, comes out as for the point itself, while the
    tests run on integers.

    One chamber holding the point is found by walking from the identity:
    while a wall of the chamber of u has the point strictly on its far
    side, step across it to u s_k.  Each step crosses one of the root
    hyperplanes that separate the chamber from the point, so the walk ends
    within l(w0) steps.  The chambers holding the point are then the star
    of the walls through it: those reached from there across walls that
    contain the point (the coset u W_J of its stabilizer).  They are
    returned in enumeration order."""
    group = fan.table.group
    if len(lam) != group.ambient_dim:
        raise PreconditionError(f"point length {len(lam)} != {group.ambient_dim}")
    point = clear_denominators(lam)
    walls, simples = fan._walls
    u = group.identity()
    dots = _wall_dots(u, walls, point)
    while (k := next((k for k, d in enumerate(dots) if d < 0), None)) is not None:
        u = compose(u, simples[k])
        dots = _wall_dots(u, walls, point)
    star = {u.window: u}
    frontier = [(u, dots)]
    while frontier:
        v, dots = frontier.pop()
        for k, d in enumerate(dots):
            if d == 0:
                w = compose(v, simples[k])
                if w.window not in star:
                    star[w.window] = w
                    frontier.append((w, _wall_dots(w, walls, point)))
    # enumeration order compares windows letter by letter in
    # 1 < ... < n < nbar < ... < 1bar, and order_key at the full window
    # length keeps that order among the letters of each factor
    n = len(u.window)
    hit = sorted(star.values(), key=lambda w: [order_key(v, n) for v in w.window])
    images = {fan.table.retract(c).window for c in hit}
    if len(images) > 1:
        shown = sorted(list(w) for w in images)
        raise AmbiguousBoundary(f"point lies between targets {shown}")
    target = fan.table.retract(hit[0])
    grade = cone_membership(fan.cone_for(target).cone, point)
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
