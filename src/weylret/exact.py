"""Exact rational linear algebra, feasibility LP and convex hulls.

Everything here computes over Fraction (or plain int) with no floating
point anywhere, and the heavy loops run on integers: determinants by
fraction-free Bareiss elimination; null spaces and pivot columns from one
fraction-free Gauss-Jordan elimination on rows cleared of denominators;
cone membership by sign tests; LP feasibility by a phase-1 simplex with
Bland's rule that pivots on integers (every division in a pivot is exact)
on a tableau that holds no artificial columns; and convex hulls in any
dimension by integer double description.  The hull's integral coordinate
chart of the affine hull, its affinely independent start points and its
start rays all come from that same elimination: the chart and the start
are its pivot columns, the rays its null spaces.  Each facet carries the
bitmask of the points on it; vertices and edges are read off those masks,
and an edge is certified by the sum of the normals of its facets.  The
edge LP, which cross-checks the hull, is solved as its Farkas dual: a
convex combination of the other points on the line through the pair, d+1
rows over one column per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import and_
from typing import NamedTuple, Sequence

from .errors import ParseError, PreconditionError

Rat = int | Fraction


def parse_rational(text: str | int) -> Fraction:
    """A rational from a string or a number; booleans are refused, since
    JSON's true and false are no numbers."""
    if isinstance(text, bool):
        raise ParseError(f"not a rational number: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


def format_rational(q: Rat) -> str:
    return str(Fraction(q))


def clear_denominators(vec: Sequence[Rat]) -> list[int]:
    """The vector times the lcm of its denominators: integers with every
    sign kept, since the scaling is positive.  `int` and `Fraction` entries
    are read as they are; any other entry goes through `Fraction` first."""
    return _cleared(vec)[0]


def _cleared(vec: Sequence[Rat]) -> tuple[list[int], int]:
    """(the vector times m, m) for m the lcm of its denominators."""
    if all(type(v) is int for v in vec):
        return list(vec), 1
    fracs = [v if type(v) is Fraction or type(v) is int else Fraction(v) for v in vec]
    mult = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (mult // f.denominator) for f in fracs], mult


def _integer_points(points: Sequence[Sequence[Rat]]) -> tuple[list[tuple[int, ...]], int]:
    """(the points times m, m) for m the lcm of all their denominators: one
    positive scaling, so every affine relation among the points is kept."""
    flat, mult = _cleared([v for p in points for v in p])
    out, k = [], 0
    for p in points:
        out.append(tuple(flat[k:k + len(p)]))
        k += len(p)
    return out, mult


def integer_primitive(vec: Sequence[Rat]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero
    entry positive."""
    ints = clear_denominators(vec)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if next(v for v in ints if v) < 0:
        g = -g
    return tuple(v // g for v in ints)


# --- Matrices -------------------------------------------------------------

def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class RationalMatrix:
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "rows",
            tuple(tuple(Fraction(v) for v in row) for row in self.rows),
        )
        if self.rows and any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        cleared = [_cleared(row) for row in self.rows]
        return Fraction(_bareiss_det([r for r, _ in cleared]), prod(m for _, m in cleared))

    def to_json(self) -> list[list[str]]:
        return [[format_rational(v) for v in row] for row in self.rows]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str | int]]) -> "RationalMatrix":
        return cls(tuple(tuple(parse_rational(v) for v in row) for row in data))


# --- Linear algebra: one fraction-free Gauss-Jordan elimination ---------

def _row_reduce(
    rows: Sequence[Sequence[Rat]], ncols: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Gauss-Jordan elimination on integers: (rows, pivot columns), one
    integer row per pivot, and row r divided by its entry at pivots[r] is
    row r of the reduced row echelon form.  The pivot columns are the
    first maximal linearly independent set of columns.

    A row with a `Fraction` entry is first cleared of denominators and
    divided by its content, a nonzero scaling that keeps the row space; a
    row of `int`s is taken as it is.  Clearing column c of row i with
    pivot d maps it to row_i * d - row_i[c] * pivot_row, which is then
    divided by its content, so every entry stays an integer (Bareiss,
    Math. Comp. 22, 1968)."""
    m = []
    for k, row in enumerate(rows):
        if len(row) != ncols:
            raise PreconditionError(f"row {k} has length {len(row)}, expected {ncols}")
        if all(type(v) is int for v in row):
            m.append(tuple(row))
        else:
            m.append(_primitive(clear_denominators(row)))
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        d = prow[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = _primitive([a * d - f * b for a, b in zip(row, prow)])
        pivots.append(c)
    return m[: len(pivots)], pivots


def nullspace_basis(rows: Sequence[Sequence[Rat]], dim: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of {x : Ax = 0}, one vector per free column;
    every row must have length dim.

    With d_r the pivot of reduced row r and L the lcm of the pivots, free
    column c gets x_c = L and x_{p_r} = -a_rc * (L / d_r): L times the
    solution read off the RREF, in integers, made primitive with its first
    nonzero entry positive.  The RREF depends only on the row space, so the
    basis depends only on the null space: equal null spaces give equal
    bases."""
    reduced, pivots = _row_reduce(rows, dim)
    big = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    scaled = [(p, row, big // row[p]) for row, p in zip(reduced, pivots)]
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for c in free:
        vec = [0] * dim
        vec[c] = big
        for p, row, s in scaled:
            vec[p] = -row[c] * s
        basis.append(integer_primitive(vec))
    return tuple(basis)


# --- Cones ----------------------------------------------------------------

class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def _dot(a: Sequence[Rat], b: Sequence[Rat]) -> Rat:
    return sum(x * y for x, y in zip(a, b, strict=True))


def cone_membership(normals: Sequence[Sequence[Rat]], point: Sequence[Rat]) -> Membership:
    """Position of a point relative to the cone {x : <n, x> >= 0 for n in
    normals}: interior means every inequality is strict."""
    tight = False
    for n in normals:
        s = _dot(n, point)
        if s < 0:
            return Membership.OUTSIDE
        if s == 0:
            tight = True
    return Membership.BOUNDARY if tight else Membership.INTERIOR


# --- LP feasibility -------------------------------------------------------

def _phase1_feasible(rows: list[list[int]], rhs: list[int]) -> bool:
    """Phase 1 on {A y = b, y >= 0} with b >= 0, pivoting on integers.

    Row i starts with its artificial variable, index width + i, basic.  The
    tableau stores only the columns of A and the rhs: an artificial that
    leaves the basis is fixed at 0 and never re-enters.  Every point of
    objective 0 has it at 0 anyway, so the verdict is that of the full
    phase 1, and Bland's rule still terminates on the smaller problem.

    The tableau holds integers over one common denominator D > 0 (the last
    pivot; Edmonds' scheme, as in lrs).  A pivot on (r, s) keeps row r and
    maps every other row, the objective row included, to
    (row * piv - row[s] * tab[r]) // D, an exact division by Sylvester's
    identity; D then becomes piv.
    """
    m = len(rows)
    if m == 0:
        return True
    width = len(rows[0])
    tab = [rows[i] + [rhs[i]] for i in range(m)]
    basis = [width + i for i in range(m)]
    # reduced costs for minimizing the sum of the artificials, then that sum
    obj = [sum(col) for col in zip(*tab)]
    denom = 1
    while True:
        enter = next((j for j in range(width) if obj[j] > 0), None)
        if enter is None:
            break
        # ratio test rhs_i / a_i by cross-multiplying (every a_i > 0),
        # ties to the smaller basis index
        r = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if r < 0:
                    r = i
                    continue
                lhs, rhs_best = tab[i][-1] * tab[r][enter], tab[r][-1] * a
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[r]):
                    r = i
        if r < 0:
            raise AssertionError("phase-1 objective unbounded")
        prow = tab[r]
        piv = prow[enter]
        for i in range(m):
            if i != r:
                f = tab[i][enter]
                tab[i] = [(a * piv - f * b) // denom for a, b in zip(tab[i], prow)]
        f = obj[enter]
        obj = [(a * piv - f * b) // denom for a, b in zip(obj, prow)]
        denom = piv
        basis[r] = enter
    return obj[-1] == 0


def lp_edge_feasible(points: Sequence[Sequence[Rat]], i: int, j: int) -> bool:
    """True when some linear functional is tied on points i and j and
    smaller by at least 1 on every other point: [p, q] = [points[i],
    points[j]] is then an edge of their convex hull with every other point
    off the line pq.  Geometrically, this holds iff no convex combination
    of the other points lies on the line pq.

    That is the Farkas dual, and it is what gets solved: lambda >= 0, one
    per other point r_k, and mu+, mu- >= 0 with
    sum lambda_k (r_k - p) + (mu+ - mu-) (q - p) = 0 and sum lambda_k = 1,
    d + 1 rows over n columns, on the points scaled to integers once
    (`_lp_edge_feasible`).  By Farkas' lemma exactly one of the two systems
    is feasible.  Indices must differ and lie in range, and the points must
    share one length, or `PreconditionError` is raised."""
    n = len(points)
    if not (0 <= i < n and 0 <= j < n):
        raise PreconditionError(f"pair ({i}, {j}) out of range for {n} points")
    if i == j:
        raise PreconditionError(f"pair ({i}, {j}) repeats a point")
    dim = len(points[0])
    if any(len(p) != dim for p in points):
        raise PreconditionError("points of mixed length")
    return _lp_edge_feasible(_integer_points(points)[0], i, j)


def _lp_edge_feasible(pts: Sequence[Sequence[int]], i: int, j: int) -> bool:
    """`lp_edge_feasible` on integer points of one length, with i != j in
    range, unchecked: a caller that tests many pairs of one point set
    scales the points once and calls this per pair."""
    n = len(pts)
    p, q = pts[i], pts[j]
    cols = [[a - b for a, b in zip(r, p)] for k, r in enumerate(pts) if k != i and k != j]
    u = [b - a for a, b in zip(p, q)]
    cols += [u, [-v for v in u]]
    # a coordinate on which every column vanishes gives no constraint
    rows = [list(row) for row in zip(*cols) if any(row)]
    rows.append([1] * (n - 2) + [0, 0])
    return not _phase1_feasible(rows, [0] * (len(rows) - 1) + [1])


# --- Convex hulls by double description ------------------------------------

class Facet(NamedTuple):
    """normal . p <= offset on every point, with equality exactly on the
    points whose bits are set in mask."""

    normal: tuple[int, ...]
    offset: Rat
    mask: int


@dataclass(frozen=True)
class Hull:
    """Vertex indices, edge pairs (i < j) and facets of the convex hull of
    indexed points."""

    vertices: list[int]
    edges: list[tuple[int, int]]
    facets: tuple[Facet, ...]

    def edge_certificate(self, i: int, j: int) -> tuple[tuple[int, ...], Rat]:
        """(normal, offset): the sum of the facets through points i and j.
        It is tight exactly on the smallest face that holds both, which is
        the whole hull when no facet does; on an edge [i, j] with no other
        point on it, exactly on {i, j}."""
        through = [f for f in self.facets if f.mask >> i & 1 and f.mask >> j & 1]
        dim = len(self.facets[0].normal)
        normal = tuple(sum(f.normal[c] for f in through) for c in range(dim))
        return normal, sum(f.offset for f in through)


def certifies_edge(
    points: Sequence[Sequence[Rat]], i: int, j: int, normal: Sequence[Rat], offset: Rat
) -> bool:
    """True when normal . p equals offset at points i and j and is smaller
    at every other point, which proves [i, j] an edge of their hull."""
    for k, p in enumerate(points):
        v = _dot(normal, p)
        if v > offset or (v == offset) != (k == i or k == j):
            return False
    return True


def _primitive(vec: list[int]) -> tuple[int, ...]:
    """The vector divided by its content; the zero vector as it is."""
    g = gcd(*vec)
    return tuple(v // g for v in vec) if g > 1 else tuple(vec)


def _double_description(pts: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
    """Facets of the hull of integer points that affinely span their space.

    They are the extreme rays (a, b) of the cone {(a, b) : a . p <= b for
    every point p}, each returned with the bitmask of the points it is
    tight on.  Double description (Fukuda and Prodon 1996): start from the
    simplicial cone of d + 1 affinely independent points, whose ray
    opposite point j spans the null space of the rows (p, -1) of the other
    d points, then add the other points one at a time.  A new constraint
    keeps the rays it holds on and combines each ray it cuts off with each
    ray strictly inside it, when the two are adjacent: no third ray is
    tight on every point that both are tight on.
    """
    d = len(pts[0])
    rows = [(*p, -1) for p in pts]
    # the first d + 1 rows that are linearly independent: the pivot columns
    # of their transpose
    start = _row_reduce(list(zip(*rows)), len(rows))[1]
    rays = []
    for j in start:
        (ray,) = nullspace_basis([rows[k] for k in start if k != j], d + 1)
        if _dot(rows[j], ray) > 0:
            ray = tuple(-v for v in ray)
        rays.append((ray, sum(1 << k for k in start if k != j)))
    done = set(start)
    for k, row in enumerate(rows):
        if k in done:
            continue
        bit = 1 << k
        plus, minus, kept = [], [], []
        for ray, mask in rays:
            s = _dot(row, ray)
            if s > 0:
                plus.append((s, ray, mask))
            elif s < 0:
                minus.append((s, ray, mask))
                kept.append((ray, mask))
            else:
                kept.append((ray, mask | bit))
        masks = [mask for _, mask in rays]
        for sp, rp, mp in plus:
            for sm, rm, mm in minus:
                common = mp & mm
                if common.bit_count() < d - 1:
                    continue
                # rp and rm themselves always contain common
                if sum(1 for m in masks if m & common == common) > 2:
                    continue
                ray = _primitive([sp * b - sm * a for a, b in zip(rp, rm)])
                kept.append((ray, common | bit))
        rays = kept
    return rays


def hull_edges(points: Sequence[Sequence[Rat]]) -> Hull:
    """Vertices, edges and facets of the convex hull of distinct points in
    any dimension.  Exact integer arithmetic: rational inputs are scaled to
    integers, projected to an integral chart of their affine hull, and the
    facets found by double description, each with the bitmask of the
    points on it.  Every face is the intersection of the facets that
    contain it (the whole hull for an empty family), so point i is a
    vertex iff the facets through i meet in {i}, and vertices i, j span an
    edge iff the facets through both meet, on vertices, in {i, j}."""
    if not points:
        raise PreconditionError("no points")
    if any(len(p) != len(points[0]) for p in points):
        raise PreconditionError("points of mixed length")
    if len(set(map(tuple, points))) != len(points):
        raise PreconditionError("duplicate points")
    pts, mult = _integer_points(points)
    n = len(pts)
    if n == 1:
        return Hull([0], [], ())
    # the chart: the first coordinates independent on the affine hull, the
    # pivot columns of the differences to the first point
    diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    cols = _row_reduce(diffs, len(pts[0]))[1]
    rays = _double_description([tuple(p[c] for c in cols) for p in pts])
    through: list[list[int]] = [[] for _ in range(n)]
    for _, mask in rays:
        for k in range(n):
            if mask >> k & 1:
                through[k].append(mask)
    verts = [i for i in range(n) if reduce(and_, through[i], (1 << n) - 1) == 1 << i]
    vmask = sum(1 << i for i in verts)
    edges = []
    for a, i in enumerate(verts):
        for j in verts[a + 1:]:
            meet = vmask
            for mask in through[i]:
                if mask >> j & 1:
                    meet &= mask
            if meet == (1 << i) | (1 << j):
                edges.append((i, j))
    facets = []
    for ray, mask in rays:
        normal = [0] * len(pts[0])
        for c, v in zip(cols, ray):
            normal[c] = v
        offset = Fraction(ray[-1], mult) if mult > 1 else ray[-1]
        facets.append(Facet(tuple(normal), offset, mask))
    return Hull(verts, edges, tuple(facets))
