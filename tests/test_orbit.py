import itertools
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    fixed_point_windows_by_scan,
    limit_window_by_set_sums,
    plucker_sets_by_minors,
)
from weylret.errors import GiveUp, PreconditionError, SingularMatrix, TieDetected
from weylret.exact import RationalMatrix
from weylret.orbit import (
    SAMPLE_TRIES,
    PluckerSupport,
    fixed_points,
    geometric_table,
    limit_point,
    plucker_support,
    sample_rational_point,
    weight_for_chamber,
)
from weylret.retraction import retraction_table
from weylret.weyl import GroupDescriptor, chamber_of, elements

DEMO_1 = RationalMatrix(((1, 1, 0), (1, 0, 1), (1, 0, 0)))
DEMO_2 = RationalMatrix(((1, 0, 1), (0, 1, 0), (1, 0, 0)))


def test_plucker_support_demo_values():
    s1 = plucker_support(DEMO_1)
    assert s1.at(1) == ((1,), (2,), (3,))
    assert s1.at(2) == ((1, 2), (1, 3))
    assert s1.at(3) == ((1, 2, 3),)
    s2 = plucker_support(DEMO_2)
    assert s2.at(1) == ((1,), (3,))
    assert s2.at(2) == ((1, 2), (2, 3))
    assert s2.at(3) == ((1, 2, 3),)


def test_plucker_support_rejects_singular():
    with pytest.raises(SingularMatrix):
        plucker_support(RationalMatrix(((1, 1), (1, 1))))


def test_support_json_shape():
    s1 = plucker_support(DEMO_1)
    data = s1.to_json()
    assert data["n"] == 3
    assert data["sets"][0] == [[1], [2], [3]]


def test_fixed_points_demo_values(s3):
    assert {w.window for w in fixed_points(DEMO_1)} == {
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (3, 1, 2),
    }
    assert {w.window for w in fixed_points(DEMO_2)} == {(1, 2, 3), (3, 2, 1)}
    # accepts a precomputed support as well
    assert fixed_points(plucker_support(DEMO_1)) == fixed_points(DEMO_1)


def test_fixed_points_match_group_scan():
    # windows extended level by level against a test of every permutation,
    # on the demo supports and on seeded sparse (degenerate) ones
    mats = [DEMO_1, DEMO_2]
    for n in (4, 5):
        mats += [sample_rational_point(n, seed, kind="sparse") for seed in range(25)]
    for mat in mats:
        sup = plucker_support(mat)
        got = tuple(w.window for w in fixed_points(sup))
        assert got == fixed_point_windows_by_scan(sup)


def test_weight_for_chamber_recovers_chamber(s4):
    for u in elements(s4):
        lam = weight_for_chamber(u)
        assert sum(lam) == 0
        assert chamber_of(lam, s4) == u


def test_limit_point_demo_tables(s3):
    for mat, expected in (
        (
            DEMO_1,
            {
                (1, 2, 3): (1, 2, 3),
                (1, 3, 2): (1, 3, 2),
                (2, 1, 3): (2, 1, 3),
                (2, 3, 1): (2, 1, 3),
                (3, 1, 2): (3, 1, 2),
                (3, 2, 1): (3, 1, 2),
            },
        ),
        (
            DEMO_2,
            {
                (1, 2, 3): (1, 2, 3),
                (1, 3, 2): (1, 2, 3),
                (2, 1, 3): (1, 2, 3),
                (2, 3, 1): (3, 2, 1),
                (3, 1, 2): (3, 2, 1),
                (3, 2, 1): (3, 2, 1),
            },
        ),
    ):
        support = plucker_support(mat)
        for u in elements(s3):
            lam = weight_for_chamber(u)
            assert limit_point(support, lam).window == expected[u.window]


def test_limit_point_tie(s3):
    support = plucker_support(DEMO_2)
    # level one minimizes over rows {1, 3}; equal weights there tie
    with pytest.raises(TieDetected):
        limit_point(support, (0, 5, 0))


def test_limit_point_rejects_non_flag_support(s3):
    bogus = PluckerSupport(3, (((1,), (2,)), ((2, 3),), ((1, 2, 3),)))
    with pytest.raises(ValueError):
        limit_point(bogus, (0, 1, 2))


def test_limit_point_nesting_error_on_hand_made_support(s3):
    # level 1 picks row 1, level 2 picks {2, 3}: both unique, not nested
    bogus = PluckerSupport(3, (((1,), (3,)), ((1, 3), (2, 3)), ((1, 2, 3),)))
    with pytest.raises(ValueError, match="not nested at size 2") as err:
        limit_point(bogus, (0, -10, 1))
    assert not isinstance(err.value, TieDetected)
    # the same support nests at a weight where {1, 3} wins level 2
    assert limit_point(bogus, (0, 5, 1)).window == (1, 3, 2)


@pytest.mark.parametrize(
    "sets",
    [
        (((1,),), ((1, 2),)),  # two levels for size 3
        (((1,),), ((1, 2),), ((1, 2),)),  # a set of the wrong size
        (((1,),), ((2, 1),), ((1, 2, 3),)),  # an unsorted set
        (((1,),), ((1, 4),), ((1, 2, 3),)),  # a row out of range
        (((0,),), ((1, 2),), ((1, 2, 3),)),  # a row below 1
    ],
)
def test_support_refuses_malformed_levels(sets):
    with pytest.raises(PreconditionError):
        PluckerSupport(3, sets)


def test_geometric_table_demo_and_provenance(s3):
    table = geometric_table(DEMO_1)
    assert table.provenance == "geometric-limit"
    assert {u: v.window for u, v in table.as_dict.items()} == {
        (1, 2, 3): (1, 2, 3),
        (1, 3, 2): (1, 3, 2),
        (2, 1, 3): (2, 1, 3),
        (2, 3, 1): (2, 1, 3),
        (3, 1, 2): (3, 1, 2),
        (3, 2, 1): (3, 1, 2),
    }
    alg = retraction_table(fixed_points(DEMO_1))
    assert table.as_dict == alg.as_dict


def test_geometric_table_reuses_the_fixed_points(monkeypatch):
    # the fixed points are built once per support, whoever asks first
    build = PluckerSupport.__dict__["fixed_points"].func
    built = []

    def counted(support):
        built.append(support)
        return build(support)

    prop = cached_property(counted)
    prop.__set_name__(PluckerSupport, "fixed_points")
    monkeypatch.setattr(PluckerSupport, "fixed_points", prop)
    for x in (DEMO_1, DEMO_2, sample_rational_point(4, seed=3, kind="sparse")):
        sup = plucker_support(x)
        fixed = fixed_points(sup)
        tables = [geometric_table(sup), geometric_table(sup)]
        assert all(t.targets == fixed.elements for t in tables)
        assert fixed_points(sup) is fixed
        assert built == [sup]
        built.clear()
        # from the table side first
        sup = plucker_support(x)
        assert geometric_table(sup).targets == fixed_points(sup).elements == fixed.elements
        assert built == [sup]
        built.clear()


def test_sample_rational_point_determinism():
    a = sample_rational_point(4, seed=99)
    b = sample_rational_point(4, seed=99)
    assert a == b
    assert a.det() != 0
    c = sample_rational_point(4, seed=100)
    assert a != c
    sparse = sample_rational_point(4, seed=7, kind="sparse")
    assert sparse.det() != 0


def test_sample_rational_point_give_up():
    # density 0 draws only the zero matrix, so every one of the draws fails
    with pytest.raises(GiveUp, match=f"in {SAMPLE_TRIES} draws"):
        sample_rational_point(3, seed=1, kind="sparse", density=Fraction(0))


def test_sample_rational_point_bad_kind():
    with pytest.raises(ValueError):
        sample_rational_point(3, seed=1, kind="weird")


@st.composite
def invertible_matrices(draw, sizes=(3, 4)):
    """Random invertible rational matrices, 3x3 and 4x4 unless `sizes` says
    otherwise; zeros are frequent, so degenerate supports (small
    fixed-point sets) come up."""
    n = draw(st.sampled_from(sizes))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-6, max_value=6, max_denominator=3),
    )
    mat = RationalMatrix(
        tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    )
    assume(mat.det() != 0)
    return mat


@st.composite
def square_matrices(draw):
    """Square rational matrices of sizes 1-6, about half of whose entries
    are zero; now and then one row is made a multiple of another, so that
    singular matrices come up at every size."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-6, max_value=6, max_denominator=4),
    )
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
        rows[i] = [c * v for v in rows[j]]
    return RationalMatrix(tuple(tuple(row) for row in rows))


@settings(max_examples=200, deadline=None)
@given(x=square_matrices())
def test_plucker_support_matches_one_determinant_per_minor(x):
    want = plucker_sets_by_minors(x)
    if want is None:
        with pytest.raises(SingularMatrix):
            plucker_support(x)
    else:
        assert plucker_support(x).sets == want


@settings(max_examples=30, deadline=None)
@given(x=invertible_matrices())
def test_greedy_and_order_routes_agree_on_fixed_point_sets(x):
    M = fixed_points(x)
    greedy = retraction_table(M)
    order = retraction_table(M, method="matroid")
    assert greedy.targets == order.targets
    assert greedy.mapping == order.mapping


# small ranges, so that equal sums, and with them ties, come up often
_WEIGHT_ENTRY = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=3)


@st.composite
def hand_made_supports(draw):
    """Supports of sizes 1-5 whose levels are any nonempty families of
    k-sets, so that minimizers need not nest."""
    n = draw(st.integers(1, 5))
    levels = []
    for k in range(1, n + 1):
        family = list(itertools.combinations(range(1, n + 1), k))
        picked = draw(st.lists(st.sampled_from(family), min_size=1, unique=True))
        levels.append(tuple(sorted(picked)))
    return PluckerSupport(n, tuple(levels))


def _limit_outcome(limit, support, lam):
    try:
        return tuple(limit(support, lam))
    except (TieDetected, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(
    support=st.one_of(invertible_matrices().map(plucker_support), hand_made_supports()),
    data=st.data(),
)
def test_limit_point_matches_the_set_sum_oracle(support, data):
    """Subset sums read by bitmask give the window, the tie or the nesting
    failure that summing every set anew gives, with int and `Fraction`
    weights, ties included, and at the tie-free chamber weights."""
    n = support.n
    lam = data.draw(
        st.lists(_WEIGHT_ENTRY, min_size=n, max_size=n)
        | st.sampled_from(elements(GroupDescriptor.simple("A", n))).map(weight_for_chamber)
    )
    want = _limit_outcome(limit_window_by_set_sums, support, lam)
    got = _limit_outcome(lambda s, w: limit_point(s, w).window, support, lam)
    assert got == want


@settings(max_examples=25, deadline=None)
@given(x=invertible_matrices(sizes=(3, 4, 5)))
def test_geometric_table_equals_greedy_table(x):
    support = plucker_support(x)
    limit = geometric_table(support)
    greedy = retraction_table(fixed_points(support))
    assert limit.targets == greedy.targets
    assert limit.mapping == greedy.mapping
    for u, v in limit.mapping:
        assert limit_window_by_set_sums(support, weight_for_chamber(u)) == v.window
