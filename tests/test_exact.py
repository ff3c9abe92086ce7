import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hull_edges_2d, lp_edge_primal, lp_feasible, minor
from weylret import exact
from weylret.errors import ParseError, PreconditionError
from weylret.exact import (
    Membership,
    RationalMatrix,
    _row_reduce,
    certifies_edge,
    clear_denominators,
    cone_membership,
    format_rational,
    hull_edges,
    integer_primitive,
    lp_edge_feasible,
    nullspace_basis,
    parse_rational,
)

F = Fraction


def rand_fraction(rng: random.Random) -> Fraction:
    return F(rng.randint(-9, 9), rng.randint(1, 4))


# --- rationals -------------------------------------------------------------


def test_parse_and_format_rational():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-2") == F(-2)
    assert parse_rational(" 1/3 ") == F(1, 3)
    assert parse_rational("1.5") == F(3, 2)
    assert parse_rational(7) == F(7)
    for bad in ("1/0", "abc", "", "1/2/3", True, False):
        with pytest.raises(ParseError):
            parse_rational(bad)
    assert format_rational(F(3, 4)) == "3/4"
    assert format_rational(F(-2)) == "-2"
    assert parse_rational(format_rational(F(-22, 7))) == F(-22, 7)


def test_clear_denominators_reads_ints_and_fractions_as_they_are():
    assert clear_denominators([F(1, 2), 3, F(-1, 3)]) == [3, 18, -2]
    assert clear_denominators([4, -6]) == [4, -6]
    assert clear_denominators(["1/4", 0.5]) == [1, 2]
    out = clear_denominators([F(2, 3), True])
    assert out == [2, 3] and all(type(v) is int for v in out)


def test_integer_primitive():
    assert integer_primitive((F(1, 2), F(-3, 4), F(0))) == (2, -3, 0)
    assert integer_primitive((4, 6, -2)) == (2, 3, -1)
    # sign is normalized: first nonzero entry comes out positive
    assert integer_primitive((0, 0, -5)) == (0, 0, 1)
    with pytest.raises(ValueError):
        integer_primitive((0, 0, 0))


# --- matrices vs sympy -----------------------------------------------------


def test_det_rank_minor_vs_sympy():
    rng = random.Random(1)
    for trial in range(25):
        n = rng.randint(1, 5)
        rows = tuple(
            tuple(rand_fraction(rng) for _ in range(n)) for _ in range(n)
        )
        mat = RationalMatrix(rows)
        sym = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
        assert mat.det() == sym.det()
        assert len(_row_reduce(rows, n)[1]) == sym.rank()
        k = rng.randint(1, n)
        ri = sorted(rng.sample(range(1, n + 1), k))
        ci = sorted(rng.sample(range(1, n + 1), k))
        sub = sym[[i - 1 for i in ri], [j - 1 for j in ci]]
        assert minor(mat, ri, ci) == sub.det()


def test_det_hand_values():
    assert RationalMatrix(((1, 2), (3, 4))).det() == -2
    hilbert = RationalMatrix(
        tuple(tuple(F(1, i + j + 1) for j in range(3)) for i in range(3))
    )
    assert hilbert.det() == F(1, 2160)


def test_matrix_json_round_trip():
    mat = RationalMatrix(((F(1, 2), F(-3)), (F(0), F(7, 5))))
    assert RationalMatrix.from_json(mat.to_json()) == mat
    assert mat.to_json() == [["1/2", "-3"], ["0", "7/5"]]


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(max_denominator=50), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
)
def test_matrix_json_round_trip_property(rows):
    mat = RationalMatrix(tuple(map(tuple, rows)))
    assert RationalMatrix.from_json(mat.to_json()) == mat


# --- linear algebra --------------------------------------------------------


def test_rref_and_nullspace():
    rng = random.Random(2)
    for trial in range(20):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rand_fraction(rng) for _ in range(ncols)] for _ in range(nrows)]
        sym = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows])
        assert len(_row_reduce(rows, ncols)[1]) == sym.rank()
        basis = nullspace_basis(rows, ncols)
        assert len(basis) == ncols - sym.rank()
        for vec in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def _sympy_fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


_entries = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
)


@st.composite
def rational_matrices(draw):
    """Wide and tall matrices of ints and Fractions, padded with zero rows
    and repeats of their own rows, in any order."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(_entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    for extra in draw(st.lists(st.integers(-1, nrows - 1), max_size=3)):
        rows.append([0] * ncols if extra < 0 else list(rows[extra]))
    return draw(st.permutations(rows)), ncols


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_elimination_matches_sympy(case):
    rows, ncols = case
    sym = sympy.Matrix([[sympy.Rational(str(Fraction(x))) for x in r] for r in rows])
    sym_rref, sym_pivots = sym.rref()
    want = [[_sympy_fraction(x) for x in sym_rref.row(i)] for i in range(sym.rows)]
    reduced, pivots = _row_reduce(rows, ncols)
    rref = [[Fraction(x, row[p]) for x in row] for row, p in zip(reduced, pivots)]
    assert pivots == list(sym_pivots)
    assert rref == want[: len(pivots)]
    assert all(not any(row) for row in want[len(pivots) :])
    basis = nullspace_basis(rows, ncols)
    sym_basis = [
        integer_primitive([_sympy_fraction(x) for x in v]) for v in sym.nullspace()
    ]
    assert list(basis) == sym_basis
    for vec in basis:
        assert all(type(x) is int for x in vec)
        assert math.gcd(*vec) == 1
        assert next(x for x in vec if x) > 0
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.data())
def test_nullspace_basis_depends_only_on_the_row_space(case, data):
    """Rows changed by elementary operations (adding an integer multiple of
    another row, scaling by a nonzero integer), padded with zero rows and
    permuted, span the same space and so get the same basis."""
    rows, ncols = case
    mixed = [list(r) for r in rows]
    last = len(mixed) - 1
    ops = st.tuples(st.integers(0, last), st.integers(0, last), st.integers(-3, 3))
    for i, j, c in data.draw(st.lists(ops, max_size=8)):
        if i != j:
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        elif c:
            mixed[i] = [c * a for a in mixed[i]]
    mixed += [[0] * ncols] * data.draw(st.integers(0, 2))
    mixed = data.draw(st.permutations(mixed))
    assert nullspace_basis(mixed, ncols) == nullspace_basis(rows, ncols)


@pytest.mark.parametrize(
    "call",
    [
        lambda: nullspace_basis([[0, 0, 1]], 2),
        lambda: nullspace_basis([[1, 1], [1]], 2),
        lambda: nullspace_basis([[1, 0], [0, 1, 5]], 2),
        lambda: _row_reduce([[1, 1], [1]], 2),
        lambda: _row_reduce([(1, 0, 2)], 2),
    ],
    ids=["too-wide", "ragged", "ragged-wide", "rref-ragged", "subspace-wide"],
)
def test_row_widths_are_checked(call):
    with pytest.raises(PreconditionError, match="length"):
        call()


def _rref(rows, ncols):
    reduced, pivots = _row_reduce(rows, ncols)
    return [tuple(Fraction(x, row[p]) for x in row) for row, p in zip(reduced, pivots)]


def test_canonical_subspace_is_basis_invariant():
    """The RREF of the rows is canonical for their span, and the null-space
    basis for its orthogonal complement: both see only the subspace."""
    v1, v2 = (1, 0, 2, 0), (0, 1, -1, 3)
    mixed = [
        (1, 1, 1, 3),  # v1 + v2
        (2, -1, 5, -3),  # 2 v1 - v2
    ]
    assert _rref([v1, v2], 4) == _rref(mixed, 4)
    assert _rref([v1], 4) != _rref([v1, v2], 4)
    assert _rref([], 4) == []
    assert nullspace_basis([v1, v2], 4) == nullspace_basis(mixed, 4)
    assert nullspace_basis([v1], 4) != nullspace_basis([v1, v2], 4)
    assert len(nullspace_basis([], 4)) == 4


# --- cones -----------------------------------------------------------------


QUADRANT = ((1, 0), (0, 1))


def test_cone_membership():
    cone = QUADRANT
    assert cone_membership(cone, (1, 1)) is Membership.INTERIOR
    assert cone_membership(cone, (0, 1)) is Membership.BOUNDARY
    assert cone_membership(cone, (0, 0)) is Membership.BOUNDARY
    assert cone_membership(cone, (-1, 1)) is Membership.OUTSIDE


def test_cone_lineality():
    assert nullspace_basis(QUADRANT, 2) == ()
    assert nullspace_basis([(1, 0, 0)], 3) == ((0, 1, 0), (0, 0, 1))


# --- linear programming ----------------------------------------------------


def test_lp_feasible_basic():
    # x >= 1 and x <= 2 encoded as -x <= -1, x <= 2
    assert lp_feasible([((-1,), -1), ((1,), 2)], [], 1)
    assert not lp_feasible([((1,), -1), ((-1,), -1)], [], 1)
    # equality x + y = 1 with x, y <= 0 is infeasible
    assert not lp_feasible(
        [((1, 0), 0), ((0, 1), 0)], [((1, 1), 1)], 2
    )
    assert lp_feasible([((1, 0), 0), ((0, 1), 0)], [((1, 1), -1)], 2)
    assert lp_feasible([], [], 3)


def test_lp_feasible_refuses_rows_longer_than_dim():
    # x <= -1 and x >= 1 with a stray second coefficient: no silent truncation
    for ineqs in (
        [((1,), -1), ((-1, 0), -1)],
        [((-1, 0), -1), ((1,), -1)],
    ):
        with pytest.raises(PreconditionError):
            lp_feasible(ineqs, [], 1)
    with pytest.raises(PreconditionError):
        lp_feasible([], [((1, 1), 0)], 1)
    # a shorter row is padded with zeros
    assert not lp_feasible([((1,), -1), ((-1, 0), -1)], [], 2)
    assert lp_feasible([((1,), 1), ((0, -1), -1)], [], 2)


def test_lp_feasible_artificial_leaves_for_good():
    # x1 + x2 = 2, x1 - x2 = 0 in free x, with x1 <= 1: a row with a nonzero
    # rhs is feasible only once its artificial has left the basis
    assert lp_feasible([((1, 0), 1)], [((1, 1), 2), ((1, -1), 0)], 2)
    assert not lp_feasible([((1, 0), F(1, 2))], [((1, 1), 2), ((1, -1), 0)], 2)
    # a redundant equality keeps its artificial basic at zero
    assert lp_feasible([], [((1, 1), 2), ((2, 2), 4)], 2)
    assert not lp_feasible([], [((1, 1), 2), ((2, 2), 5)], 2)


def test_lp_feasible_randomized_witness():
    # systems built around a known solution must come back feasible
    rng = random.Random(4)
    for trial in range(20):
        dim = rng.randint(1, 4)
        x0 = [rand_fraction(rng) for _ in range(dim)]
        ineqs = []
        eqs = []
        for _ in range(rng.randint(1, 6)):
            a = [rand_fraction(rng) for _ in range(dim)]
            val = sum(ai * xi for ai, xi in zip(a, x0))
            if rng.random() < 0.3:
                eqs.append((tuple(a), val))
            else:
                ineqs.append((tuple(a), val + F(rng.randint(0, 3))))
        assert lp_feasible(ineqs, eqs, dim)


@pytest.mark.parametrize("big", [9, 10**12])
def test_lp_feasible_farkas_infeasible(big):
    # a Farkas certificate y (y >= 0 on the inequalities, any sign on the
    # equalities) with y^T A = 0 and y^T b < 0 proves infeasibility; each
    # system is built around one, its last row chosen to cancel the others
    rng = random.Random(big)

    def entry() -> Fraction:
        # mixed denominators across and within rows
        return F(rng.randint(-big, big), rng.randint(1, 7))

    for trial in range(25):
        dim = rng.randint(1, 4)
        n_ineq, n_eq = rng.randint(1, 5), rng.randint(0, 2)
        y = [F(rng.randint(0, 5), rng.randint(1, 3)) for _ in range(n_ineq)]
        y[-1] = F(rng.randint(1, 5), rng.randint(1, 3))
        y += [entry() or F(1) for _ in range(n_eq)]
        rows = [[entry() for _ in range(dim)] for _ in range(n_ineq + n_eq - 1)]
        rhs = [entry() for _ in rows]
        last = n_ineq - 1
        # rows are stored inequalities first, the free row at index `last`
        rows.insert(last, [0] * dim)
        rhs.insert(last, 0)
        for c in range(dim):
            rows[last][c] = -sum(y[k] * rows[k][c] for k in range(len(rows))) / y[last]
        gap = F(rng.randint(1, big), rng.randint(1, 7))
        rhs[last] = (-gap - sum(y[k] * rhs[k] for k in range(len(rows)))) / y[last]
        assert all(sum(y[k] * rows[k][c] for k in range(len(rows))) == 0 for c in range(dim))
        assert sum(y[k] * rhs[k] for k in range(len(rows))) == -gap
        ineqs = [(tuple(rows[k]), rhs[k]) for k in range(n_ineq)]
        eqs = [(tuple(rows[k]), rhs[k]) for k in range(n_ineq, n_ineq + n_eq)]
        assert not lp_feasible(ineqs, eqs, dim), (ineqs, eqs)


def test_lp_feasible_large_entries_witness():
    # the converse at the same scale: a known solution keeps it feasible
    rng = random.Random(5)
    big = 10**12
    for trial in range(25):
        dim = rng.randint(1, 4)
        x0 = [F(rng.randint(-big, big), rng.randint(1, 7)) for _ in range(dim)]
        ineqs, eqs = [], []
        for _ in range(rng.randint(1, 6)):
            a = [F(rng.randint(-big, big), rng.randint(1, 7)) for _ in range(dim)]
            val = sum(ai * xi for ai, xi in zip(a, x0))
            if rng.random() < 0.3:
                eqs.append((tuple(a), val))
            else:
                ineqs.append((tuple(a), val + F(rng.randint(0, big), rng.randint(1, 7))))
        assert lp_feasible(ineqs, eqs, dim)


# --- hulls -----------------------------------------------------------------


def test_hull_edges_2d_vs_sympy():
    rng = random.Random(6)
    for trial in range(30):
        pts = set()
        while len(pts) < rng.randint(3, 10):
            pts.add((rand_fraction(rng), rand_fraction(rng)))
        pts = sorted(pts)
        got = {frozenset((pts[i], pts[j])) for i, j in hull_edges(pts).edges}
        assert got == hull_edges_2d(pts), pts


def test_hull_edges_degenerate():
    hull = hull_edges([(0, 0), (2, 2), (1, 1)])
    assert sorted(hull.vertices) == [0, 1] and hull.edges == [(0, 1)]
    hull = hull_edges([(5, 7)])
    assert hull.vertices == [0] and hull.edges == []
    with pytest.raises(ValueError):
        hull_edges([(0, 0), (0, 0)])


def test_hull_edges_duplicates_are_a_precondition_error():
    for pts in ([(0, 0), (0, 0)], [(1, 2, 3), (0, 0, 0), (1, 2, 3)]):
        with pytest.raises(PreconditionError, match="duplicate points"):
            hull_edges(pts)


def test_hull_edges_square_with_center():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    hull = hull_edges(pts)
    assert sorted(hull.vertices) == [0, 1, 2, 3]
    assert len(hull.edges) == 4
    assert all(4 not in e for e in hull.edges)


def test_hull_edges_permutohedron():
    # S4 orbit of an increasing point: 24 vertices, 36 edges, cubic graph
    perms = list(itertools.permutations((0, 1, 2, 3)))
    hull = hull_edges(perms)
    assert len(hull.vertices) == 24
    assert len(hull.edges) == 36
    degree = {i: 0 for i in range(24)}
    for i, j in hull.edges:
        degree[i] += 1
        degree[j] += 1
    assert set(degree.values()) == {3}
    # every edge differs by a transposition of adjacent values
    for i, j in hull.edges:
        diff = [a - b for a, b in zip(perms[i], perms[j])]
        nonzero = sorted(v for v in diff if v != 0)
        assert len(nonzero) == 2 and nonzero[0] == -nonzero[1]


def test_hull_edges_4_simplex():
    pts = [tuple(int(i == j) for j in range(4)) for i in range(4)] + [
        (0, 0, 0, 0)
    ]
    hull = hull_edges(pts)
    assert hull.vertices == [0, 1, 2, 3, 4]
    assert hull.edges == list(itertools.combinations(range(5), 2))


def test_hull_edges_reads_ints_fractions_and_strings_alike():
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    halves = [(0, F(0)), ("1", 0), (F(0), 1), (F(1), "1")]
    a, b = hull_edges(square), hull_edges(halves)
    assert (a.vertices, a.edges) == (b.vertices, b.edges)
    assert [f.normal for f in a.facets] == [f.normal for f in b.facets]
    assert [f.offset for f in b.facets] == [F(f.offset, 2) for f in a.facets]


def test_hull_edges_rejects_empty_input():
    with pytest.raises(PreconditionError, match="no points"):
        hull_edges([])


def test_hull_edges_rejects_points_of_mixed_length():
    # zip would truncate the longer points and give a wrong hull
    for pts in ([(1,), (0, 0), (0, 1)], [(0, 0), (1,), (0, 1)]):
        with pytest.raises(PreconditionError, match="mixed length"):
            hull_edges(pts)


def _signed_orbit(point, even):
    # signed permutations of a point, with an even number of signs flipped
    # when `even` (the type-D orbit)
    out = []
    for perm in itertools.permutations(point):
        for signs in itertools.product((1, -1), repeat=len(point)):
            if not (even and signs.count(-1) % 2):
                out.append(tuple(s * v for s, v in zip(signs, perm)))
    return out


@pytest.mark.parametrize(
    "points, n_facets, n_edges, degree",
    [
        (list(itertools.permutations(range(4))), 14, 36, 3),
        (list(itertools.permutations(range(5))), 30, 240, 4),
        (_signed_orbit((1, 2, 3, 4), even=True), 48, 384, 4),
        (_signed_orbit((1, 2, 3, 4), even=False), 80, 768, 4),
    ],
    ids=["S4", "S5", "D4", "BC4"],
)
def test_hull_face_counts_of_full_orbits(points, n_facets, n_edges, degree):
    # orbits of regular points: simple polytopes with every point a vertex
    hull = hull_edges(points)
    assert hull.vertices == list(range(len(points)))
    assert len(hull.facets) == n_facets
    assert len(hull.edges) == n_edges
    assert sorted(Counter(k for e in hull.edges for k in e).values()) == [degree] * len(points)
    for f in hull.facets:
        assert math.gcd(*f.normal, f.offset) == 1
        on = {k for k, p in enumerate(points) if sum(a * b for a, b in zip(f.normal, p)) == f.offset}
        assert on == {k for k in range(len(points)) if f.mask >> k & 1}
        assert all(sum(a * b for a, b in zip(f.normal, p)) <= f.offset for p in points)


def test_hull_edges_5_cube():
    # in dimension 5, two rays that share d - 1 tight points need not be
    # adjacent, so the double description needs its combinatorial test
    pts = list(itertools.product((-1, 1), repeat=5))
    hull = hull_edges(pts)
    assert len(hull.vertices) == 32
    assert len(hull.facets) == 10
    assert len(hull.edges) == 80
    assert all(sum(a != b for a, b in zip(pts[i], pts[j])) == 1 for i, j in hull.edges)


def test_hull_start_rays_come_from_one_elimination(monkeypatch):
    # the start of the double description reads the rays of its simplex
    # off one elimination; on a simplex they are all the facets, each the
    # null-space ray of the other points' rows (p, -1), signed to point
    # away from its own point
    rng = random.Random(21)
    simplices = []
    while len(simplices) < 40:
        d = rng.randint(1, 5)
        pts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + 1)]
        if len(_row_reduce([(*p, -1) for p in pts], d + 1)[1]) == d + 1:
            simplices.append(pts)
    expected = []
    for pts in simplices:
        rows = [(*p, -1) for p in pts]
        rays = []
        for j, row in enumerate(rows):
            (ray,) = nullspace_basis(rows[:j] + rows[j + 1:], len(row))
            if sum(a * b for a, b in zip(row, ray)) > 0:
                ray = tuple(-v for v in ray)
            rays.append(ray)
        expected.append(rays)

    def refuse(*args):
        raise AssertionError("hull_edges called nullspace_basis")

    monkeypatch.setattr(exact, "nullspace_basis", refuse)
    for pts, rays in zip(simplices, expected):
        assert [(*f.normal, f.offset) for f in hull_edges(pts).facets] == rays, pts
    hull_edges(list(itertools.product((-1, 1), repeat=4)))


def test_hull_facets_of_rational_points():
    # offsets come back in the input's own scale
    pts = [(F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 3))]
    hull = hull_edges(pts)
    assert sorted((f.normal, f.offset) for f in hull.facets) == [
        ((-1, 0), 0), ((0, -1), 0), ((2, 3), 1),
    ]
    for i, j in hull.edges:
        assert certifies_edge(pts, i, j, *hull.edge_certificate(i, j))


def test_certifies_edge_rejects_non_edges():
    square = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    hull = hull_edges(square)
    assert certifies_edge(square, 0, 1, *hull.edge_certificate(0, 1))
    # a diagonal: no facet holds both ends, so the zero functional is tight
    # everywhere
    assert not certifies_edge(square, 0, 2, *hull.edge_certificate(0, 2))
    # a functional that some other point exceeds
    assert not certifies_edge(square, 0, 1, (0, 1), 0)
    assert not certifies_edge(square, 0, 1, (0, -1), -1)


def _no_three_collinear(pts) -> bool:
    for a, b, c in itertools.combinations(pts, 3):
        if (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]):
            return False
    return True


def test_lp_edge_feasible_matches_hull_2d():
    # the two detectors agree only in general position: a third point in
    # the middle of a hull edge defeats the LP's strict separation while
    # the hull still reports the edge.  Orbit points sit on a sphere, so
    # the library never feeds that case; keep the comparison domain honest.
    rng = random.Random(8)
    for trial in range(10):
        pts = set()
        while len(pts) < 7 or not _no_three_collinear(pts):
            if len(pts) >= 7:
                pts.clear()
            pts.add((rand_fraction(rng), rand_fraction(rng)))
        pts = sorted(pts)
        edge_set = {frozenset(e) for e in hull_edges(pts).edges}
        for i, j in itertools.combinations(range(len(pts)), 2):
            assert lp_edge_feasible(pts, i, j) == (
                frozenset((i, j)) in edge_set
            )


@st.composite
def edge_lp_cases(draw):
    """Distinct rational points, dimension 1-5 and 2-10 of them, drawn in
    general position, on one line or on one plane, and a pair of indices."""
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(2, 10))
    coord = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    vec = st.lists(coord, min_size=dim, max_size=dim)
    kind = draw(st.sampled_from(("general", "line", "plane")))
    if kind == "general":
        points = draw(st.lists(vec, min_size=n, max_size=n, unique_by=tuple))
    else:
        base = draw(vec)
        dirs = draw(st.lists(vec, min_size=1 if kind == "line" else 2,
                             max_size=1 if kind == "line" else 2))
        steps = draw(st.lists(
            st.lists(coord, min_size=len(dirs), max_size=len(dirs)),
            min_size=n, max_size=n,
        ))
        points = list({
            tuple(b + sum(t * d[c] for t, d in zip(ts, dirs)) for c, b in enumerate(base))
            for ts in steps
        })
    if len(points) < 2:
        points = [(F(0),) * dim, (F(1),) * dim]
    i, j = draw(st.lists(st.integers(0, len(points) - 1), min_size=2, max_size=2, unique=True))
    return [tuple(p) for p in points], i, j


@settings(max_examples=120, deadline=None)
@given(edge_lp_cases())
def test_lp_edge_feasible_matches_primal_oracle(case):
    points, i, j = case
    assert lp_edge_feasible(points, i, j) == lp_edge_primal(points, i, j)


@settings(max_examples=60, deadline=None)
@given(edge_lp_cases(), st.booleans(), st.integers(-3, 3))
def test_hull_edges_ignore_a_leading_dependent_coordinate(case, constant, c):
    """A first coordinate that is constant, or a combination of the others,
    is an affine image of the same polytope: the same vertices, edges and
    facet masks.  The chart must then pass over a dependent coordinate
    rather than take the first ones."""
    points = case[0]
    lifted = [(c if constant else c * p[0] + p[-1], *p) for p in points]
    a, b = hull_edges(points), hull_edges(lifted)
    assert (a.vertices, a.edges) == (b.vertices, b.edges)
    assert sorted(f.mask for f in a.facets) == sorted(f.mask for f in b.facets)


def test_lp_edge_feasible_sees_a_point_inside_the_segment():
    # the convex combination (1, 1) of the others lies on the line of the
    # pair, so the pair spans no strictly separated edge
    pts = [(0, 0), (2, 2), (1, 1), (5, 0)]
    assert not lp_edge_feasible(pts, 0, 1)
    assert lp_edge_feasible(pts, 0, 3)
    # a combination of two points off the line can land on it too
    assert not lp_edge_feasible([(0, 0), (4, 0), (1, 1), (3, -1)], 0, 1)
    assert lp_edge_feasible([(0, 0), (4, 0), (1, 1), (3, 1)], 0, 1)
    assert lp_edge_feasible([(F(1, 2),), (F(3, 2),)], 0, 1)


@pytest.mark.parametrize(
    "points, i, j",
    [
        ([(0, 0), (1, 0), (0, 1)], 1, 1),
        ([(0, 0), (1, 0), (0, 1)], 0, 3),
        ([(0, 0), (1, 0), (0, 1)], -1, 0),
        ([(0, 0), (1, 0), (0, 1, 0)], 0, 1),
        ([(0, 0), (1,), (0, 1)], 0, 2),
        ([], 0, 1),
    ],
)
def test_lp_edge_feasible_refuses_bad_pairs_and_ragged_points(points, i, j):
    with pytest.raises(PreconditionError):
        lp_edge_feasible(points, i, j)


def test_lp_edge_feasible_permutohedron_spots():
    perms = list(itertools.permutations((0, 1, 2, 3)))
    edge_set = {frozenset(e) for e in hull_edges(perms).edges}
    rng = random.Random(9)
    pairs = rng.sample(list(itertools.combinations(range(24), 2)), 40)
    for i, j in set(pairs) | set(map(tuple, map(sorted, edge_set))):
        assert lp_edge_feasible(perms, i, j) == (frozenset((i, j)) in edge_set)
