"""Matroid-style verification for subsets of classical Weyl groups.

Two independent characterizations are implemented and cross-checked by the
test suite and the `verify` command:

* order route: M is accepted when for every base element u the translate
  u^-1 M has a unique Bruhat extremum;
* polytope route: M is accepted when every edge of the convex hull of the
  orbit {w . nu : w in M} is parallel to a root, nu being
  `default_base_point`, an integer point interior to the identity chamber.

A third route for the order itself: on types A and BC the shifted Bruhat
order is equivalent to prefix-set dominance in the Gale order the base
element induces, which `flag_order_leq` computes from scratch.  On D the
order is still read off prefix sets, but Gale dominance alone is too weak:
it also needs a parity condition (see `retraction._set_parity_keys`).
`bruhat_interval` filters with the scalar `bruhat_leq`, which tests the
same criterion as the order route's kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import DescriptorMismatch, PreconditionError
from .exact import _lp_edge_feasible, _primitive, certifies_edge, hull_edges
from .retraction import SubsetM, _extremal_sets, algebraic_retract, closest_set
from .retraction import _extremal_elements  # noqa: F401  (bench/spans.py traces the scan by this name)
from .weyl import (
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    act_on_vector,
    bruhat_leq,
    compose,
    default_base_point,
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

    For any M, the unique extrema of all base elements are read off the
    translated prefix sets of M in chunks, one array pass each
    (`retraction._extrema`), which settles uniqueness without the
    quadratic scan; the base elements of a chunk with no unique extremum
    go together to one batched scan (`retraction._extremal_elements`),
    which lists their extremal elements."""
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    us = elements(M.group)
    failures = tuple(
        (u, ext)
        for u, ext in zip(us, _extremal_sets(M, us, side, greedy_first=True))
        if len(ext) != 1
    )
    return MatroidVerdict(not failures, side, failures)


# --- Orbit polytope route -------------------------------------------------

def orbit_points(M: SubsetM) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The orbit {w . nu : w in M} of nu = `default_base_point`, and nu.  A
    point of another chamber would test a right translate of M instead."""
    nu = default_base_point(M.group)
    return tuple(act_on_vector(w, nu) for w in M), nu


@lru_cache(maxsize=16)
def _root_lines(group: GroupDescriptor) -> frozenset[tuple[int, ...]]:
    """The roots divided by their content: an integer direction is
    parallel to a root iff it is one of these once divided by its own."""
    return frozenset(_primitive(beta) for beta in group.all_roots())


@dataclass(frozen=True)
class PhiReport:
    is_phi: bool
    vertices: tuple[SignedPermutation, ...]
    edges: tuple[tuple[SignedPermutation, SignedPermutation], ...]
    offending: tuple[tuple[SignedPermutation, SignedPermutation], ...]
    nu: tuple[int, ...]


def phi_polytope_check(M: SubsetM) -> PhiReport:
    """Hull the orbit of `default_base_point` and test every edge
    direction for parallelism with a root.  The verdict is the same at
    every point interior to the identity chamber (Gelfand-Serganova;
    Borovik, Gelfand and White, Coxeter Matroids, ch. 6).

    Each offending edge is certified by the sum of the normals of the
    facets through it, checked by integer dot products to be tight on the
    edge's two points alone, so a reported failure always carries a
    certificate.  The combinatorial hull is also cross-checked against
    the LP of `lp_edge_feasible` on every pair when the orbit has at most
    `LP_CROSSCHECK_LIMIT` points, which are integers.
    """
    points, nu = orbit_points(M)
    hull = hull_edges(points)
    # points of one orbit lie on a sphere, so each must come back a vertex
    if len(hull.vertices) != len(points):
        raise AssertionError("regular orbit point was not a hull vertex")
    root_lines = _root_lines(M.group)
    members = M.elements
    offending = [
        (i, j)
        for i, j in hull.edges
        if _primitive([a - b for a, b in zip(points[i], points[j])]) not in root_lines
    ]
    for i, j in offending:
        if not certifies_edge(points, i, j, *hull.edge_certificate(i, j)):
            raise AssertionError(
                f"offending pair ({list(members[i].window)},"
                f" {list(members[j].window)}) fails its facet-normal certificate"
            )
    if len(points) <= LP_CROSSCHECK_LIMIT:
        edge_set = set(hull.edges)
        for i, j in itertools.combinations(range(len(points)), 2):
            if _lp_edge_feasible(points, i, j) != ((i, j) in edge_set):
                raise AssertionError(
                    f"hull and LP disagree on pair ({list(members[i].window)},"
                    f" {list(members[j].window)})"
                )
    return PhiReport(
        not offending,
        tuple(members[k] for k in hull.vertices),
        tuple((members[i], members[j]) for i, j in hull.edges),
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
    BC.  Type D is rejected: its Bruhat order is determined by prefix sets
    too, but Gale dominance lacks the parity condition that D needs."""
    if v.group != w.group or v.group != u.group:
        raise ValueError("mixed groups")
    if len(u.group.factors) != 1:
        raise ValueError("flag order is defined per factor")
    if u.group.factors[0].type is WeylType.D:
        raise ValueError("Gale dominance of prefix sets alone does not give type-D order")
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


def _is_reflection(d: SignedPermutation) -> bool:
    """Whether d is a reflection, read off its window: d moves either one
    letter i, to -i (the root e_i or 2e_i), or two letters i != j, to
    d(i) = s j and d(j) = s i for one sign s (the root e_i - s e_j)."""
    moved = [(i, v) for i, v in enumerate(d.window, start=1) if v != i]
    if len(moved) == 2:
        (i, a), (j, b) = moved
        return abs(a) == j and abs(b) == i and (a > 0) == (b > 0)
    return len(moved) == 1 and moved[0][1] == -moved[0][0]


def two_element_analysis(x: SignedPermutation, y: SignedPermutation) -> TwoElementReport:
    if x.group != y.group:
        raise DescriptorMismatch(f"{x.group} != {y.group}")
    if x.window == y.window:
        raise PreconditionError("need two distinct elements")
    M = SubsetM(x.group, (x, y))
    closest_route = True
    for u in elements(x.group):
        close, _ = closest_set(M, u)
        if len(close) != 1 or close[0].window != algebraic_retract(M, u).window:
            closest_route = False
            break
    matroid_route = is_coxeter_matroid(M).is_matroid
    reflection_route = _is_reflection(compose(inverse(x), y))
    return TwoElementReport(closest_route, matroid_route, reflection_route)
