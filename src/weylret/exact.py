"""Exact rational linear algebra, feasibility LP and small-dimension hulls.

Everything here computes over Fraction (or plain int) with no floating
point anywhere: determinants by fraction-free Bareiss elimination, cone
membership by sign tests, LP feasibility by a phase-1 simplex with Bland's
rule, and convex-hull edge enumeration by exact orientation tests after
projecting to an integral coordinate chart of the affine hull.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

import numpy as np

from .errors import ParseError, PreconditionError

Rat = int | Fraction


def parse_rational(text: str | int) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


def format_rational(q: Rat) -> str:
    return str(Fraction(q))


def integer_primitive(vec: Sequence[Rat]) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero
    entry positive."""
    fracs = [Fraction(v) for v in vec]
    mult = lcm(*(f.denominator for f in fracs)) if fracs else 1
    ints = [int(f * mult) for f in fracs]
    g = gcd(*ints) if any(ints) else 0
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    ints = [v // g for v in ints]
    first = next(v for v in ints if v)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


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
        denom = 1
        cleared = []
        for row in self.rows:
            d = lcm(*(v.denominator for v in row)) if row else 1
            denom *= d
            cleared.append([int(v * d) for v in row])
        return Fraction(_bareiss_det(cleared), denom)

    def minor(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> Fraction:
        """Determinant of the submatrix on 1-based row and column indices."""
        sub = RationalMatrix(
            tuple(
                tuple(self.rows[i - 1][j - 1] for j in col_indices)
                for i in row_indices
            )
        )
        return sub.det()

    def rank(self) -> int:
        return len(rref([list(r) for r in self.rows])[1])

    def to_json(self) -> list[list[str]]:
        return [[format_rational(v) for v in row] for row in self.rows]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str | int]]) -> "RationalMatrix":
        return cls(tuple(tuple(parse_rational(v) for v in row) for row in data))


def rref(rows: Sequence[Sequence[Rat]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def nullspace_basis(rows: Sequence[Sequence[Rat]], dim: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of {x : Ax = 0}, one vector per free column."""
    if not rows:
        rows = [[0] * dim]
    reduced, pivots = rref(rows)
    free = [c for c in range(dim) if c not in pivots]
    basis = []
    for c in free:
        vec = [Fraction(0)] * dim
        vec[c] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][c]
        basis.append(integer_primitive(vec))
    return tuple(basis)


def canonical_subspace(vectors: Sequence[Sequence[Rat]], dim: int) -> tuple[tuple[Fraction, ...], ...]:
    """RREF rows spanning the same subspace; equal iff subspaces are equal."""
    if not vectors:
        return ()
    reduced, pivots = rref(vectors)
    return tuple(tuple(row) for row in reduced[: len(pivots)])


# --- Cones ----------------------------------------------------------------

class Membership(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class HalfspaceCone:
    """{x : <n, x> >= 0 for n in normals, <e, x> = 0 for e in equalities}."""

    normals: tuple[tuple[int, ...], ...]
    equalities: tuple[tuple[int, ...], ...] = ()
    dim: int = 0


def _dot(a: Sequence[Rat], b: Sequence[Rat]) -> Rat:
    return sum(x * y for x, y in zip(a, b, strict=True))


def cone_membership(cone: HalfspaceCone, point: Sequence[Rat]) -> Membership:
    """Relative position of a point: interior means every inequality is
    strict (equalities never demote interiority)."""
    for e in cone.equalities:
        if _dot(e, point) != 0:
            return Membership.OUTSIDE
    tight = False
    for n in cone.normals:
        s = _dot(n, point)
        if s < 0:
            return Membership.OUTSIDE
        if s == 0:
            tight = True
    return Membership.BOUNDARY if tight else Membership.INTERIOR


def cone_lineality(cone: HalfspaceCone) -> tuple[tuple[int, ...], ...]:
    rows = [list(v) for v in cone.normals] + [list(v) for v in cone.equalities]
    return nullspace_basis(rows, cone.dim)


# --- LP feasibility -------------------------------------------------------

def lp_feasible(
    ineqs: Sequence[tuple[Sequence[Rat], Rat]],
    eqs: Sequence[tuple[Sequence[Rat], Rat]],
    dim: int,
) -> bool:
    """Exact feasibility of {x : <a,x> <= b for ineqs, <a,x> = b for eqs},
    x free, via phase-1 simplex with Bland's rule."""
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    nslack = len(ineqs)
    width = 2 * dim + nslack
    for k, (coeffs, b) in enumerate(ineqs):
        row = [Fraction(0)] * width
        for i, a in enumerate(coeffs):
            row[i] = Fraction(a)
            row[dim + i] = -Fraction(a)
        row[2 * dim + k] = Fraction(1)
        rows.append(row)
        rhs.append(Fraction(b))
    for coeffs, b in eqs:
        row = [Fraction(0)] * width
        for i, a in enumerate(coeffs):
            row[i] = Fraction(a)
            row[dim + i] = -Fraction(a)
        rows.append(row)
        rhs.append(Fraction(b))
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    return _phase1_feasible(rows, rhs)


def _phase1_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    m = len(rows)
    if m == 0:
        return True
    width = len(rows[0])
    # one artificial per row, all basic at start
    tab = [rows[i] + [Fraction(int(i == j)) for j in range(m)] + [rhs[i]] for i in range(m)]
    basis = [width + i for i in range(m)]
    total = width + m
    # reduced-cost row for minimizing the artificial sum
    obj = [Fraction(0)] * (total + 1)
    for j in range(total + 1):
        obj[j] = sum(tab[i][j] for i in range(m))
    for j in range(width, total):
        obj[j] -= 1
    while True:
        enter = next((j for j in range(total) if obj[j] > 0), None)
        if enter is None:
            break
        best: tuple[Fraction, int, int] | None = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                cand = (ratio, basis[i], i)
                if best is None or cand[:2] < best[:2]:
                    best = cand
        if best is None:
            raise AssertionError("phase-1 objective unbounded")
        r = best[2]
        piv = tab[r][enter]
        tab[r] = [v / piv for v in tab[r]]
        for i in range(m):
            if i != r and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        if obj[enter]:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tab[r])]
        basis[r] = enter
    return obj[-1] == 0


def lp_edge_feasible(points: Sequence[Sequence[Rat]], i: int, j: int) -> bool:
    """True when some linear functional is tied on points i and j and
    smaller by at least 1 on every other point (so [i, j] is an edge of
    the convex hull, the others being strictly outside the supporting
    line)."""
    p, q = points[i], points[j]
    dim = len(p)
    eqs = [(tuple(b - a for a, b in zip(p, q)), 0)]
    ineqs = []
    for k, r in enumerate(points):
        if k in (i, j):
            continue
        ineqs.append((tuple(b - a for a, b in zip(p, r)), -1))
    return lp_feasible(ineqs, eqs, dim)


# --- Convex hull edges in intrinsic dimension <= 3 ------------------------

def _independent_columns(pts: list[tuple[int, ...]]) -> list[int]:
    diffs = [[p[c] - pts[0][c] for c in range(len(pts[0]))] for p in pts[1:]]
    if not diffs:
        return []
    _, pivots = rref(diffs)
    return pivots


def _hull_1d(vals: list[int], idx: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    lo = min(range(len(vals)), key=vals.__getitem__)
    hi = max(range(len(vals)), key=vals.__getitem__)
    return sorted((idx[lo], idx[hi])), [(min(idx[lo], idx[hi]), max(idx[lo], idx[hi]))]


def _cross2(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_2d(pts: list[tuple[int, int]], idx: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    # monotone chain with strict turns, so collinear boundary points are
    # reported as non-vertices
    order = sorted(range(len(pts)), key=lambda k: pts[k])
    chain: list[int] = []
    for half in (order, order[::-1]):
        base = len(chain)
        for k in half:
            while len(chain) - base >= 2 and _cross2(pts[chain[-2]], pts[chain[-1]], pts[k]) <= 0:
                chain.pop()
            chain.append(k)
        chain.pop()
    verts = [idx[k] for k in chain]
    edges = {tuple(sorted((verts[t], verts[(t + 1) % len(verts)]))) for t in range(len(verts))}
    return sorted(verts), sorted(edges)  # type: ignore[arg-type]


def _hull_3d(pts: list[tuple[int, ...]], idx: list[int]) -> tuple[list[int], list[tuple[int, int]]]:
    arr = np.array(pts, dtype=np.int64)
    npts = len(pts)
    planes: dict[tuple, list[int]] = {}
    for a, b, c in itertools.combinations(range(npts), 3):
        u = arr[b] - arr[a]
        v = arr[c] - arr[a]
        normal = np.cross(u, v)
        if not normal.any():
            continue
        vals = (arr - arr[a]) @ normal
        if (vals >= 0).all():
            normal = -normal
            vals = -vals
        elif not (vals <= 0).all():
            continue
        members = np.flatnonzero(vals == 0)
        key = (*integer_primitive(normal.tolist()), *sorted(members.tolist()))
        planes.setdefault(key, members.tolist())
    verts: set[int] = set()
    edges: set[tuple[int, int]] = set()
    for members in planes.values():
        cols = _independent_columns([pts[k] for k in members])
        proj = [tuple(pts[k][c] for c in cols) for k in members]
        fverts, fedges = _hull_2d(proj, [idx[k] for k in members])  # type: ignore[arg-type]
        verts.update(fverts)
        edges.update(fedges)
    return sorted(verts), sorted(edges)


def hull_edges(points: Sequence[Sequence[Rat]]) -> tuple[list[int], list[tuple[int, int]]]:
    """Vertex indices and edge pairs of the convex hull of distinct points
    with intrinsic dimension at most 3.  Exact integer arithmetic; rational
    inputs are scaled to integers first."""
    if len(set(map(tuple, points))) != len(points):
        raise ValueError("duplicate points")
    mult = lcm(*(Fraction(v).denominator for p in points for v in p)) if points else 1
    pts = [tuple(int(Fraction(v) * mult) for v in p) for p in points]
    if len(pts) == 1:
        return [0], []
    cols = _independent_columns(pts)
    k = len(cols)
    idx = list(range(len(pts)))
    if k == 0:
        raise ValueError("duplicate points")
    if k == 1:
        return _hull_1d([p[cols[0]] for p in pts], idx)
    proj = [tuple(p[c] for c in cols) for p in pts]
    if k == 2:
        return _hull_2d(proj, idx)  # type: ignore[arg-type]
    if k == 3:
        if max(abs(v) for p in proj for v in p) > 10**5:
            raise PreconditionError("coordinates too large for the int64 hull path")
        return _hull_3d(proj, idx)
    raise PreconditionError(f"intrinsic dimension {k} > 3 is not supported")
