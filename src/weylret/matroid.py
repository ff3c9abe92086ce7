"""Matroid-style verification for subsets of classical Weyl groups.

Two independent characterizations are implemented and cross-checked by the
test suite and the `verify` command:

* order route: M is accepted when for every base element u the translate
  u^-1 M has a unique Bruhat extremum;
* polytope route: M is accepted when every edge of the convex hull of the
  orbit {w . nu : w in M} of a regular point nu is parallel to a root.

A third route for the order itself: on types A and BC (not D) the shifted
Bruhat order is equivalent to prefix-set dominance in the Gale order the
base element induces, which `flag_order_leq` computes from scratch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError
from .exact import Rat, hull_edges, lp_edge_feasible
from .retraction import SubsetM, _extremal_set, algebraic_retract, closest_set
from .retraction import _extremal_elements  # noqa: F401  (bench/spans.py traces the scan by this name)
from .weyl import (
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    act_on_vector,
    bruhat_leq,
    chamber_of,
    compose,
    elements,
    inverse,
    letter_positions,
)

LP_CROSSCHECK_LIMIT = 8


@dataclass(frozen=True)
class MatroidVerdict:
    is_matroid: bool
    side: str
    failures: tuple[tuple[SignedPermutation, tuple[SignedPermutation, ...]], ...]


def is_coxeter_matroid(M: SubsetM, side: str = "max") -> MatroidVerdict:
    """Check the unique-extremum property at every base element.

    Fast path per base element when M is a product: take the greedy
    candidate and verify by direct dominance that it is a true extremum,
    which settles uniqueness without the quadratic scan; fall back to the
    scan when the candidate fails (the subset is then typically not a
    matroid at that u)."""
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    failures = []
    for u in elements(M.group):
        ext = _extremal_set(M, u, side, greedy_first=True)
        if len(ext) != 1:
            failures.append((u, ext))
    return MatroidVerdict(not failures, side, tuple(failures))


# --- Orbit polytope route -------------------------------------------------

def default_base_point(group: GroupDescriptor) -> tuple[int, ...]:
    """An integer point interior to the identity chamber: 0..r-1 on A
    blocks, -r..-1 on BC blocks, -r..-2 then 0 on D blocks."""
    out: list[int] = []
    for _, f in group.segments():
        if f.type is WeylType.A:
            out.extend(range(f.rank))
        elif f.type is WeylType.BC:
            out.extend(range(-f.rank, 0))
        else:
            out.extend(range(-f.rank, -1))
            out.append(0)
    return tuple(out)


def orbit_points(
    M: SubsetM, nu: Sequence[Rat] | None = None
) -> tuple[tuple[tuple[Rat, ...], ...], tuple[Rat, ...]]:
    if nu is None:
        nu = default_base_point(M.group)
    nu = tuple(nu)
    # a point from any other chamber would test a right translate of M
    # instead of M itself, and right translates do not preserve the property
    if chamber_of(nu, M.group) != M.group.identity():
        raise PreconditionError(
            f"base point {nu} is not interior to the identity chamber"
        )
    points = tuple(act_on_vector(w, nu) for w in M)
    if len(set(points)) != len(points):
        raise ValueError(f"base point {nu} is not regular for this subset")
    return points, nu


def _collinear(d: Sequence[Rat], b: Sequence[int]) -> bool:
    for i, j in itertools.combinations(range(len(d)), 2):
        if d[i] * b[j] != d[j] * b[i]:
            return False
    return True


@dataclass(frozen=True)
class PhiReport:
    is_phi: bool
    vertices: tuple[SignedPermutation, ...]
    edges: tuple[tuple[SignedPermutation, SignedPermutation], ...]
    offending: tuple[tuple[SignedPermutation, SignedPermutation], ...]
    nu: tuple[Rat, ...]


def phi_polytope_check(M: SubsetM, nu: Sequence[Rat] | None = None) -> PhiReport:
    """Hull the orbit of a regular point and test every edge direction for
    parallelism with a root.

    The combinatorial hull is cross-checked against `lp_edge_feasible`: on
    every pair when the orbit has at most `LP_CROSSCHECK_LIMIT` points, and
    on the offending edges otherwise, so a reported failure always carries
    an LP certificate.
    """
    points, nu = orbit_points(M, nu)
    verts, edges = hull_edges(points)
    # points of one orbit lie on a sphere, so each must come back a vertex
    if len(verts) != len(points):
        raise AssertionError("regular orbit point was not a hull vertex")
    roots = M.group.all_roots()
    members = M.elements
    offending = []
    for i, j in edges:
        d = tuple(a - b for a, b in zip(points[i], points[j]))
        if not any(_collinear(d, beta) for beta in roots):
            offending.append((i, j))
    if len(points) <= LP_CROSSCHECK_LIMIT:
        edge_set = set(edges)
        for i, j in itertools.combinations(range(len(points)), 2):
            if lp_edge_feasible(points, i, j) != ((i, j) in edge_set):
                raise AssertionError(
                    f"hull and LP disagree on pair ({list(members[i].window)},"
                    f" {list(members[j].window)})"
                )
    else:
        for i, j in offending:
            if not lp_edge_feasible(points, i, j):
                raise AssertionError(
                    f"offending pair ({list(members[i].window)},"
                    f" {list(members[j].window)}) is not LP-certified"
                )
    return PhiReport(
        not offending,
        tuple(members[k] for k in verts),
        tuple((members[i], members[j]) for i, j in edges),
        tuple((members[i], members[j]) for i, j in offending),
        nu,
    )


# --- Gale-order route for the shifted Bruhat order ------------------------

def set_order_leq(
    s: Iterable[int], t: Iterable[int], u: SignedPermutation
) -> bool:
    """Gale dominance of equal-size letter sets in the linear order induced
    by u on window letters."""
    pos = letter_positions(u)
    ss = sorted((pos[x] for x in s))
    tt = sorted((pos[x] for x in t))
    if len(ss) != len(tt):
        raise ValueError("sets must have equal size")
    return all(a <= b for a, b in zip(ss, tt))


def flag_order_leq(
    v: SignedPermutation, w: SignedPermutation, u: SignedPermutation
) -> bool:
    """Prefix-set dominance route to u^-1 v <= u^-1 w, valid on types A and
    BC; type D is rejected because its Bruhat order is not determined by
    prefix sets alone."""
    if v.group != w.group or v.group != u.group:
        raise ValueError("mixed groups")
    if len(u.group.factors) != 1:
        raise ValueError("flag order is defined per factor")
    if u.group.factors[0].type is WeylType.D:
        raise ValueError("prefix-set dominance does not characterize type D")
    n = u.group.window_length
    # the full-window set still matters for signed letters, so k runs to n
    return all(
        set_order_leq(v.window[:k], w.window[:k], u) for k in range(1, n + 1)
    )


# --- Small utilities used by the acceptance suites ------------------------

def bruhat_interval(
    lo: SignedPermutation, hi: SignedPermutation
) -> tuple[SignedPermutation, ...]:
    if lo.group != hi.group:
        raise ValueError("mixed groups")
    return tuple(
        x for x in elements(lo.group) if bruhat_leq(lo, x) and bruhat_leq(x, hi)
    )


FANO_LINES = frozenset(
    frozenset(line) for line in [
        {1, 2, 4}, {1, 3, 5}, {1, 6, 7}, {2, 3, 6}, {2, 5, 7}, {3, 4, 7}, {4, 5, 6},
    ]
)


def fano_matroid_s7() -> SubsetM:
    """Permutations of 7 letters whose first three letters avoid all seven
    lines of the projective plane of order two (4032 of the 5040)."""
    group = GroupDescriptor.simple(WeylType.A, 7)
    keep = [
        w for w in elements(group) if frozenset(w.window[:3]) not in FANO_LINES
    ]
    return SubsetM(group, tuple(keep))


@dataclass(frozen=True)
class TwoElementReport:
    """Three independently computed properties of a two-element subset."""

    closest_route: bool
    matroid_route: bool
    reflection_route: bool

    @property
    def agree(self) -> bool:
        return self.closest_route == self.matroid_route == self.reflection_route


def two_element_analysis(x: SignedPermutation, y: SignedPermutation) -> TwoElementReport:
    if x.group != y.group:
        raise ValueError("mixed groups")
    if x.window == y.window:
        raise ValueError("need two distinct elements")
    M = SubsetM(x.group, (x, y))
    closest_route = True
    for u in elements(x.group):
        close, _ = closest_set(M, u)
        if len(close) != 1 or close[0].window != algebraic_retract(M, u).window:
            closest_route = False
            break
    matroid_route = is_coxeter_matroid(M).is_matroid
    diff = compose(inverse(x), y)
    reflection_route = any(
        diff.window == t.window for t in x.group.reflections()
    )
    return TwoElementReport(closest_route, matroid_route, reflection_route)
