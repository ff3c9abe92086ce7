"""Brute-force reference implementations used only by the tests.

Each oracle recomputes a quantity along a route the library does not use:
word lengths come from breadth-first search over the Cayley graph, the
Bruhat order from the reflexive-transitive closure of covering relations,
planar hulls from sympy's geometry module, the chambers and cone normals
of a fan from scans over the whole group and every root, each chamber
tested as the cone of its own normals (`chamber_cone`), the connectivity
of a fan cone's members from a search over wall adjacency, the Pluecker
support from one determinant per minor (`minor`, Bareiss on the
submatrix), hull edges from the primal edge LP, of which the library
solves the Farkas dual, posed as a general feasibility problem
(`lp_feasible`, on the library's integer phase 1), and from that dual on
the unprojected points (`lp_edge_two_sided`), hull facets from every
hyperplane through affinely independent points (`hull_facets_brute`,
Leibniz determinants), the torus fixed
points from a test of every permutation, the limit fixed point from the
weight of every support set summed anew at every level, the canonical
sort key from `order_key` on each factor's local window, and the Bruhat
rows and type-D parity keys of the order route from each translate's own
ranks rather than from the distinct prefix sets the library translates.
The type-D Bruhat order also comes from a chain of lifting-property steps
along right descents (`_bruhat_leq_d`), where the library tests sorted
prefixes and the parity condition.
`scan_retract` is the order route's retraction by its quadratic scan
alone, without the extremum read off first.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import sympy
from sympy import Rational as SymRational
from sympy.geometry import Point2D, Polygon, Segment2D, convex_hull

from weylret.errors import NotAMatroidAt, PreconditionError, TieDetected
from weylret.exact import (
    Membership,
    RationalMatrix,
    _phase1_feasible,
    clear_denominators,
    cone_membership,
)
from weylret.fan import FanCone
from weylret.orbit import PluckerSupport
from weylret.order import _extremal_elements, _parity_table
from weylret.retraction import SubsetM
from weylret.weyl import (
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    _length_signed,
    act_on_vector,
    compose,
    elements,
    inverse,
    is_negative_root_vector,
    order_key,
)

Window = tuple[int, ...]


def bfs_lengths(group: GroupDescriptor) -> dict[Window, int]:
    """Distance from the identity in the right Cayley graph on the simple
    generators; this is the word length, computed with no root bookkeeping."""
    gens = group.simple_reflections()
    start = group.identity()
    dist: dict[Window, int] = {start.window: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = compose(w, s)
                if ws.window not in dist:
                    dist[ws.window] = dist[w.window] + 1
                    nxt.append(ws)
        frontier = nxt
    return dist


def covering_closure(group: GroupDescriptor) -> dict[Window, frozenset[Window]]:
    """Lower sets of the Bruhat order, rebuilt from first principles.

    Covers are w -> wt for a reflection t with the BFS word length dropping
    by exactly one; the order is the transitive closure, accumulated in
    increasing length so every lower set is complete when it is consumed.
    """
    lengths = bfs_lengths(group)
    refl = group.reflections()
    ordered = sorted(elements(group), key=lambda w: lengths[w.window])
    lower: dict[Window, set[Window]] = {}
    for w in ordered:
        acc = {w.window}
        for t in refl:
            wt = compose(w, t)
            if lengths[wt.window] == lengths[w.window] - 1:
                acc |= lower[wt.window]
        lower[w.window] = acc
    return {k: frozenset(v) for k, v in lower.items()}


def oracle_leq(
    closure: dict[Window, frozenset[Window]],
    v: SignedPermutation,
    w: SignedPermutation,
) -> bool:
    return v.window in closure[w.window]


def _apply_simple_d(win: Window, s: int) -> Window:
    """Right multiplication of a type-D window by the s-th simple reflection, 0-based."""
    w = list(win)
    if s < len(w) - 1:
        w[s], w[s + 1] = w[s + 1], w[s]
    else:
        w[-2], w[-1] = -w[-1], -w[-2]
    return tuple(w)


def _descent_d(win: Window, s: int) -> bool:
    """True when right multiplication by simple s shortens a type-D window."""
    if s < len(win) - 1:
        a, b = win[s], win[s + 1]
        return (abs(a) < abs(b) and a < 0) or (abs(a) > abs(b) and b > 0)
    a, b = win[-2], win[-1]
    return (abs(a) < abs(b) and a < 0) or (abs(a) > abs(b) and b < 0)


def _bruhat_leq_d(v: Window, w: Window) -> bool:
    """Bruhat order on the windows of one D_r by the lifting property: for
    s a right descent of w, v <= w iff (vs <= ws when s is a descent of v,
    else v <= ws).  Each step shortens w by one, so the chain ends within
    length(w) steps."""
    lv, lw = _length_signed(WeylType.D, v), _length_signed(WeylType.D, w)
    while v != w:
        if lv >= lw:
            return False
        s = next(s for s in range(len(w)) if _descent_d(w, s))
        if _descent_d(v, s):
            v = _apply_simple_d(v, s)
            lv -= 1
        w = _apply_simple_d(w, s)
        lw -= 1
    return True


def chamber_cone(u: SignedPermutation) -> tuple[tuple[int, ...], ...]:
    """The normals of the closed chamber of u: u applied to each negated
    simple root."""
    return tuple(act_on_vector(u, tuple(-c for c in a)) for a in u.group.simple_roots())


def chambers_holding(group: GroupDescriptor, point) -> tuple[SignedPermutation, ...]:
    """Every u, in enumeration order, whose closed chamber does not leave
    the point outside: each chamber of the group tested."""
    return tuple(
        u
        for u in elements(group)
        if cone_membership(chamber_cone(u), point) is not Membership.OUTSIDE
    )


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


def fiber_normals(
    group: GroupDescriptor, members
) -> tuple[tuple[int, ...], ...]:
    """The roots beta, in `all_roots()` order, that every member u sends
    back to a negative root: u^-1 beta tested for each pair."""
    inverses = [inverse(u) for u in members]
    return tuple(
        beta
        for beta in group.all_roots()
        if all(is_negative_root_vector(act_on_vector(iu, beta)) for iu in inverses)
    )


Point = tuple[Fraction, ...]


def _to_point2d(p) -> Point2D:
    return Point2D(SymRational(Fraction(p[0])), SymRational(Fraction(p[1])))


def _to_fracs(v) -> tuple[Fraction, Fraction]:
    return (Fraction(int(v.x.p), int(v.x.q)), Fraction(int(v.y.p), int(v.y.q)))


def hull_edges_2d(points) -> set[frozenset]:
    """Edges of the planar convex hull as a set of frozen coordinate pairs,
    via sympy; degenerate hulls give one pair (segment) or none (point)."""
    hull = convex_hull(*[_to_point2d(p) for p in points])
    if isinstance(hull, Polygon):
        verts = [_to_fracs(v) for v in hull.vertices]
        return {
            frozenset((verts[i], verts[(i + 1) % len(verts)]))
            for i in range(len(verts))
        }
    if isinstance(hull, Segment2D):
        a, b = hull.points
        return {frozenset((_to_fracs(a), _to_fracs(b)))}
    return set()


def drop_last(points) -> list[tuple[Fraction, Fraction]]:
    """Forget the final coordinate; a valid projection whenever the points
    share their coordinate sum, as orbit points of one group do."""
    sums = {sum(p) for p in (tuple(map(Fraction, q)) for q in points)}
    assert len(sums) == 1, "projection needs a constant coordinate sum"
    return [tuple(map(Fraction, p[:-1])) for p in points]


def minor(x: RationalMatrix, row_indices, col_indices) -> Fraction:
    """Determinant of the submatrix of x on 1-based row and column
    indices."""
    return RationalMatrix(
        tuple(tuple(x.rows[i - 1][j - 1] for j in col_indices) for i in row_indices)
    ).det()


def plucker_sets_by_minors(x: RationalMatrix):
    """Per size k, the row subsets J whose minor on rows J and columns 1..k
    is nonzero, each minor its own `minor` (Bareiss on the submatrix); None
    when x itself is singular."""
    n = x.nrows
    if x.det() == 0:
        return None
    return tuple(
        tuple(
            J
            for J in itertools.combinations(range(1, n + 1), k)
            if minor(x, J, range(1, k + 1)) != 0
        )
        for k in range(1, n + 1)
    )


def lp_feasible(ineqs, eqs, dim: int) -> bool:
    """Exact feasibility of {x : <a,x> <= b for ineqs, <a,x> = b for eqs},
    x free, via the library's integer-pivoting phase-1 simplex with Bland's
    rule.  A coefficient row shorter than dim is padded with zeros; a longer
    one raises `PreconditionError`."""
    rows: list[list[int]] = []
    rhs: list[int] = []
    nslack = len(ineqs)
    # columns: x+ (dim), x- (dim), one slack per inequality
    for k, (coeffs, b) in enumerate([*ineqs, *eqs]):
        if len(coeffs) > dim:
            raise PreconditionError(
                f"constraint {k} has {len(coeffs)} coefficients, expected at most {dim}"
            )
        # a positive scaling, so the constraint keeps its solution set
        *a, c = clear_denominators((*coeffs, b))
        a += [0] * (dim - len(a))
        row = a + [-v for v in a] + [int(k == t) for t in range(nslack)]
        if c < 0:
            row, c = [-v for v in row], -c
        rows.append(row)
        rhs.append(c)
    return _phase1_feasible(rows, rhs)


def lp_edge_primal(points, i: int, j: int) -> bool:
    """Some c with c . (q - p) = 0 and c . (r - p) <= -1 at every other
    point r, for p, q = points[i], points[j]: the primal edge LP, built as
    an `lp_feasible` system on the free vector c."""
    p, q = points[i], points[j]
    eqs = [(tuple(b - a for a, b in zip(p, q)), 0)]
    ineqs = [
        (tuple(b - a for a, b in zip(p, r)), -1)
        for k, r in enumerate(points)
        if k not in (i, j)
    ]
    return lp_feasible(ineqs, eqs, len(p))


def lp_edge_two_sided(points, i: int, j: int) -> bool:
    """The Farkas dual of the edge LP on the unprojected points: lambda >= 0,
    one per other point r_k, and mu+, mu- >= 0 with sum lambda_k (r_k - p)
    + (mu+ - mu-) (q - p) = 0 and sum lambda_k = 1, d + 1 rows over n
    columns, on the points scaled to integers by one lcm.  The pair spans
    an edge iff this system is infeasible."""
    flat = clear_denominators([v for pt in points for v in pt])
    d = len(points[i])
    pts = [flat[k * d:(k + 1) * d] for k in range(len(points))]
    p, q = pts[i], pts[j]
    cols = [[a - b for a, b in zip(r, p)] for k, r in enumerate(pts) if k != i and k != j]
    u = [b - a for a, b in zip(p, q)]
    cols += [u, [-v for v in u]]
    rows = [list(row) for row in zip(*cols) if any(row)]
    rows.append([1] * (len(pts) - 2) + [0, 0])
    return not _phase1_feasible(rows, [0] * (len(rows) - 1) + [1])


@functools.lru_cache(maxsize=8)
def _signed_permutations(n: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return tuple(
        (-1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1, perm)
        for perm in itertools.permutations(range(n))
    )


def _det(m) -> int:
    """Determinant by the Leibniz formula: a signed sum over permutations."""
    return sum(sign * math.prod(m[r][c] for r, c in enumerate(perm))
               for sign, perm in _signed_permutations(len(m)))


def hull_facets_brute(points) -> set[tuple[tuple[int, ...], int, int]]:
    """The facets (normal, offset, mask) of the hull of distinct integer
    points, as `Hull.facets` states them, by trying every hyperplane.

    The chart is the first coordinates that raise the rank of the
    differences to the first point (sympy's rank), k of them for an affine
    hull of dimension k.  In the chart, each k affinely independent points
    span one hyperplane a . x = b, (a, b) read off the k-by-(k+1) matrix
    of rows (p, -1) by signed maximal minors.  It is a facet when every
    point lies on one side; it is kept as (a, b) divided by their gcd and
    signed so that a . p <= b, a zero in a at each coordinate off the
    chart, and the bitmask of the points on it."""
    dim = len(points[0])
    diffs = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    chart: list[int] = []
    for c in range(dim):
        if diffs and sympy.Matrix([[row[t] for t in chart + [c]] for row in diffs]).rank() > len(chart):
            chart.append(c)
    k = len(chart)
    facets = set()
    if k == 0:
        return facets
    for subset in itertools.combinations(points, k):
        m = [[p[c] for c in chart] + [-1] for p in subset]
        x = [(-1) ** t * _det([row[:t] + row[t + 1:] for row in m]) for t in range(k + 1)]
        g = math.gcd(*x)
        if g == 0:
            continue
        a, b = [v // g for v in x[:k]], x[k] // g
        sides = [sum(ac * p[c] for ac, c in zip(a, chart)) - b for p in points]
        if max(sides) > 0:
            if min(sides) < 0:
                continue
            a, b, sides = [-v for v in a], -b, [-s for s in sides]
        normal = [0] * dim
        for ac, c in zip(a, chart):
            normal[c] = ac
        facets.add((tuple(normal), b, sum(1 << t for t, s in enumerate(sides) if s == 0)))
    return facets


def fixed_point_windows_by_scan(support: PluckerSupport) -> tuple[Window, ...]:
    """The windows of S_n, in enumeration order, all of whose prefix sets
    lie in the support: every element of the group tested."""
    levels = [set(level) for level in support.sets]
    return tuple(
        w.window
        for w in elements(GroupDescriptor.simple(WeylType.A, support.n))
        if all(tuple(sorted(w.window[:k])) in levels[k - 1] for k in range(1, support.n + 1))
    )


def limit_window_by_set_sums(support: PluckerSupport, lam) -> Window:
    """The window of the limit fixed point at the weight lam, summing the
    weights of every support set anew at every level and comparing the
    sets as sets; raises `TieDetected` on a tied least weight and
    `ValueError` when the minimizers do not nest, as `orbit.limit_point`
    does."""
    if len(lam) != support.n:
        raise ValueError(f"weight length {len(lam)} != {support.n}")
    weight = (0, *lam).__getitem__
    window: list[int] = []
    prev: frozenset[int] = frozenset()
    for k, level in enumerate(support.sets, start=1):
        sums = [sum(map(weight, J)) for J in level]
        best = min(sums)
        ties = sums.count(best)
        if ties > 1:
            raise TieDetected(f"least weight {best} at size {k} reached by {ties} sets")
        J = frozenset(level[sums.index(best)])
        if not prev < J:
            raise ValueError(f"minimizers are not nested at size {k}; not a flag support")
        (added,) = J - prev
        window.append(added)
        prev = J
    return tuple(window)


def canonical_key_by_factors(w: SignedPermutation) -> tuple[int, ...]:
    """Per factor, `order_key` of each letter of its local window, at the
    factor's rank, concatenated."""
    out = []
    for f, loc in zip(w.group.factors, w.local_windows()):
        out.extend(order_key(v, f.rank) for v in loc)
    return tuple(out)


def sorted_prefix_rows(group: GroupDescriptor, ranks: np.ndarray) -> np.ndarray:
    """One row per translate, whose ranks lie along the last axis of
    `ranks`: the sorted rank prefixes k = 1..r of every factor,
    concatenated.  On A and BC factors, w <= v in Bruhat order iff
    row w <= row v entrywise; on D factors this is condition (i) of the
    order, and `parity_keys` gives condition (ii)."""
    cols = []
    for off, f in group.segments():
        for k in range(1, f.rank + 1):
            cols.append(np.sort(ranks[..., off : off + k], axis=-1))
    return np.concatenate(cols, axis=-1)


def parity_keys(r: int, ranks: np.ndarray) -> np.ndarray:
    """The keys of condition (ii) of Bruhat order on D_r
    (`order._set_parity_keys`), one row per row of `ranks`, whose last
    axis holds the ranks of the first r - 1 letters of one translate: the
    running sums of its letters' parity-table rows, levels k = 1..r-1 one
    after another."""
    table, full, kept = _parity_table(r)
    high, low_bars, high_bars = np.moveaxis(table[ranks].cumsum(axis=-3), -2, 0)
    keys = np.where(high == full, 2 * low_bars + (high_bars & 1), -1)
    return keys[..., kept]


def scan_retract(M: SubsetM, u: SignedPermutation, side: str = "min") -> SignedPermutation:
    """`retraction.matroid_retract` by the scan of every member
    (`_extremal_elements`), with no extremum read off M's prefix-set bounds
    first; raises `NotAMatroidAt` with the extremal elements when there is
    no unique one."""
    (extremal,) = _extremal_elements(M, [u], side)
    if len(extremal) != 1:
        raise NotAMatroidAt(u, extremal)
    return extremal[0]
