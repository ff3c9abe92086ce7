import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _bruhat_leq_d,
    canonical_key_by_factors,
    covering_closure,
    oracle_leq,
    parity_keys,
    scan_retract,
    sorted_prefix_rows,
)
from weylret import retraction
from weylret.errors import (
    DescriptorMismatch,
    EnumerationCapExceeded,
    NotAMatroidAt,
    NotAProduct,
)
from weylret.exact import RationalMatrix
from weylret.matroid import MatroidVerdict, bruhat_interval, fano_matroid_s7, is_coxeter_matroid
from weylret.orbit import fixed_points
from weylret.retraction import (
    RetractionTable,
    SubsetM,
    _dominates_all,
    _extremal_elements,
    algebraic_retract,
    closest_set,
    matroid_retract,
    retraction_table,
)
from weylret.suites import DEMO_MATRIX_1
from weylret.weyl import (
    Factor,
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    bruhat_leq,
    compose,
    elements,
    inverse,
    letter_positions,
    longest_element,
    metric,
    root_set,
)


def subset(group, *windows) -> SubsetM:
    return SubsetM.from_windows(group, windows)


def every_subset(group, max_size=None):
    pool = list(elements(group))
    limit = len(pool) if max_size is None else max_size
    for size in range(1, limit + 1):
        for combo in itertools.combinations(pool, size):
            yield SubsetM(group, combo)


# --- SubsetM ----------------------------------------------------------------


def test_subset_canonical_and_dedup(s3):
    M = subset(s3, (3, 2, 1), (1, 2, 3), (3, 2, 1))
    assert len(M) == 2
    assert [w.window for w in M] == [(1, 2, 3), (3, 2, 1)]
    assert SignedPermutation(s3, (1, 2, 3)) in M
    assert SignedPermutation(s3, (2, 1, 3)) not in M


def test_is_product():
    g = GroupDescriptor((Factor(WeylType.A, 2), Factor(WeylType.A, 2)))
    assert subset(g, (1, 2, 3, 4)).is_product
    assert subset(
        g, (1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 4, 3), (2, 1, 4, 3)
    ).is_product
    M = subset(g, (1, 2, 3, 4), (2, 1, 4, 3))
    assert not M.is_product
    with pytest.raises(NotAProduct):
        algebraic_retract(M, g.identity())


def test_greedy_checks_side_before_product():
    # a bad side is a ValueError on any M, as for the order route
    g = GroupDescriptor((Factor(WeylType.A, 2), Factor(WeylType.A, 2)))
    M = subset(g, (1, 2, 3, 4), (2, 1, 4, 3))
    for retract in (algebraic_retract, matroid_retract):
        with pytest.raises(ValueError, match="side"):
            retract(M, g.identity(), side="bogus")


def test_canonical_key_matches_per_factor_order_keys():
    g = GroupDescriptor((Factor(WeylType.A, 3), Factor(WeylType.D, 3), Factor(WeylType.BC, 2)))
    pool = elements(g)
    for w in pool:
        assert retraction._canonical_key(w) == canonical_key_by_factors(w)
    shuffled = list(pool)
    random.Random(7).shuffle(shuffled)
    M = SubsetM(g, tuple(shuffled[:200]))
    assert list(M) == sorted(shuffled[:200], key=canonical_key_by_factors)


# --- greedy route -----------------------------------------------------------


def list_greedy(M: SubsetM, u: SignedPermutation, side: str = "min"):
    """Greedy recomputed over plain window lists, no tries."""
    pos = letter_positions(u)
    pick = min if side == "min" else max
    cands = [w.window for w in M]
    chosen: list[int] = []
    for j in range(M.group.window_length):
        letters = {w[j] for w in cands if tuple(w[: j]) == tuple(chosen)}
        chosen.append(pick(letters, key=pos.__getitem__))
    return tuple(chosen)


@pytest.mark.parametrize("side", ["min", "max"])
def test_greedy_matches_list_oracle(side, s4, bc2):
    rng = random.Random(21)
    for g in (s4, bc2):
        pool = list(elements(g))
        for _ in range(40):
            M = SubsetM(g, tuple(rng.sample(pool, rng.randint(1, len(pool)))))
            for u in rng.sample(pool, 6):
                got = algebraic_retract(M, u, side=side)
                assert got.window == list_greedy(M, u, side)


def test_greedy_identity_on_targets(s4):
    rng = random.Random(22)
    pool = list(elements(s4))
    for _ in range(20):
        M = SubsetM(s4, tuple(rng.sample(pool, rng.randint(1, 10))))
        for m in M:
            assert algebraic_retract(M, m) == m
            assert matroid_retract(M, m) == m
            cs, dist = closest_set(M, m)
            assert cs == (m,) and dist == 0


def test_greedy_two_element_hand_value(s4):
    # the greedy route can overshoot the metric: from 1423 it walks to 4312
    # at distance 3 although 2143 sits at distance 2
    M = subset(s4, (2, 1, 4, 3), (4, 3, 1, 2))
    u = SignedPermutation(s4, (1, 4, 2, 3))
    assert algebraic_retract(M, u).window == (4, 3, 1, 2)
    cs, dist = closest_set(M, u)
    assert [w.window for w in cs] == [(2, 1, 4, 3)] and dist == 2


def test_greedy_on_product_group():
    g = GroupDescriptor((Factor(WeylType.A, 2), Factor(WeylType.BC, 2)))
    M = subset(g, (1, 2, 3, 4), (2, 1, 3, 4), (1, 2, -4, 3), (2, 1, -4, 3))
    assert M.is_product
    u = SignedPermutation(g, (2, 1, -3, -4))
    got = algebraic_retract(M, u)
    assert got.window in {w.window for w in M}
    assert algebraic_retract(M, g.identity()).window == (1, 2, 3, 4)


_PRODUCT_GROUPS = [
    GroupDescriptor.simple(WeylType.A, 4),
    GroupDescriptor.simple(WeylType.BC, 3),
    GroupDescriptor.simple(WeylType.D, 3),
    GroupDescriptor((Factor(WeylType.A, 3), Factor(WeylType.BC, 2))),
]


@st.composite
def product_subsets(draw):
    """A product of nonempty per-factor sets of local windows."""
    group = draw(st.sampled_from(_PRODUCT_GROUPS))
    pool = elements(group)
    picks = []
    for j in range(len(group.factors)):
        local = sorted({w.local_windows()[j] for w in pool})
        picks.append(set(draw(st.lists(st.sampled_from(local), min_size=1, max_size=4, unique=True))))
    members = [w for w in pool if all(loc in p for loc, p in zip(w.local_windows(), picks))]
    return SubsetM(group, tuple(members))


@settings(max_examples=40, deadline=None)
@given(M=product_subsets(), side=st.sampled_from(("min", "max")))
def test_greedy_fixes_members_and_is_idempotent(M, side):
    # the maximum at u is the minimum at u w0, so side "max" fixes m at m w0
    w0 = longest_element(M.group)
    home = (lambda m: m) if side == "min" else (lambda m: compose(m, w0))
    for m in M:
        assert algebraic_retract(M, home(m), side=side) == m
    for u in elements(M.group):
        r = algebraic_retract(M, u, side=side)
        assert r in M
        assert algebraic_retract(M, home(r), side=side) == r


# --- matroid route ----------------------------------------------------------


def brute_matroid_retract(M, u, side="min"):
    """Unique extremum through the covering-closure oracle, or None."""
    closure = covering_closure(M.group)
    iu = inverse(u)
    pairs = [(compose(iu, m), m) for m in M]
    out = []
    for tv, v in pairs:
        if side == "min":
            ok = all(oracle_leq(closure, tv, tw) for tw, _ in pairs)
        else:
            ok = all(oracle_leq(closure, tw, tv) for tw, _ in pairs)
        if ok:
            out.append(v)
    return out[0] if len(out) == 1 else None


@pytest.mark.parametrize("side", ["min", "max"])
def test_matroid_retract_vs_closure_oracle(side, s3, bc2):
    rng = random.Random(23)
    for g in (s3, bc2):
        pool = list(elements(g))
        for _ in range(60):
            M = SubsetM(g, tuple(rng.sample(pool, rng.randint(1, len(pool)))))
            u = rng.choice(pool)
            expected = brute_matroid_retract(M, u, side)
            if expected is None:
                with pytest.raises(NotAMatroidAt):
                    matroid_retract(M, u, side=side)
            else:
                assert matroid_retract(M, u, side=side) == expected


def test_matroid_retract_failure_payload(s3):
    M = subset(s3, (2, 1, 3), (1, 3, 2))
    with pytest.raises(NotAMatroidAt) as exc:
        matroid_retract(M, s3.identity())
    assert sorted(m.window for m in exc.value.minimals) == [
        (1, 3, 2),
        (2, 1, 3),
    ]
    assert exc.value.u == s3.identity()


def test_greedy_first_agrees_with_scan(s4):
    rng = random.Random(24)
    pool = list(elements(s4))
    for _ in range(40):
        M = SubsetM(s4, tuple(rng.sample(pool, rng.randint(1, len(pool)))))
        u = rng.choice(pool)
        expected = brute_matroid_retract(M, u)
        for route in (matroid_retract, scan_retract):
            if expected is None:
                with pytest.raises(NotAMatroidAt):
                    route(M, u)
            else:
                assert route(M, u) == expected


def test_min_max_duality(s3, bc2):
    # the maximum at u is the minimum at u w0
    rng = random.Random(25)
    for g in (s3, bc2):
        w0 = longest_element(g)
        pool = list(elements(g))
        for _ in range(40):
            M = SubsetM(g, tuple(rng.sample(pool, rng.randint(1, len(pool)))))
            u = rng.choice(pool)
            try:
                hi = matroid_retract(M, u, side="max")
            except NotAMatroidAt:
                with pytest.raises(NotAMatroidAt):
                    matroid_retract(M, compose(u, w0), side="min")
                continue
            assert matroid_retract(M, compose(u, w0), side="min") == hi


# --- closest route ----------------------------------------------------------


def test_closest_set_hand_values(s3):
    M = subset(s3, (1, 2, 3), (3, 2, 1))
    cs, dist = closest_set(M, SignedPermutation(s3, (2, 1, 3)))
    assert [w.window for w in cs] == [(1, 2, 3)] and dist == 1
    cs, dist = closest_set(M, SignedPermutation(s3, (2, 3, 1)))
    assert [w.window for w in cs] == [(3, 2, 1)] and dist == 1
    tie = subset(s3, (1, 3, 2), (2, 1, 3))
    cs, dist = closest_set(tie, s3.identity())
    assert [w.window for w in cs] == [(1, 3, 2), (2, 1, 3)] and dist == 1


# the root-set cache: Lie ranks, as on the command line (A1xBC2 is S2xBC2)
_CACHE_GROUPS = {
    "BC3": GroupDescriptor.simple(WeylType.BC, 3),
    "D4": GroupDescriptor.simple(WeylType.D, 4),
    "A1xBC2": GroupDescriptor((Factor(WeylType.A, 2), Factor(WeylType.BC, 2))),
}


@pytest.mark.parametrize("name", _CACHE_GROUPS)
def test_closest_set_agrees_with_uncached_root_sets(name, monkeypatch):
    group = _CACHE_GROUPS[name]
    W = elements(group)
    rng = random.Random(22)
    subsets = [tuple(rng.sample(W, rng.randint(1, 8))) for _ in range(6)]
    cached = [[closest_set(SubsetM(group, s), u) for u in W] for s in subsets]
    monkeypatch.setattr(retraction, "root_set", root_set.__wrapped__)
    assert [[closest_set(SubsetM(group, s), u) for u in W] for s in subsets] == cached


def test_closest_set_on_a_group_too_large_to_enumerate():
    """A10 (S11, |W| = 11!): the root-set cache is filled one element at a
    time, so `closest_set` never lists W, which would raise here."""
    group = GroupDescriptor.simple(WeylType.A, 11)
    with pytest.raises(EnumerationCapExceeded):
        elements(group)
    rng = random.Random(10)

    def draw() -> SignedPermutation:
        return group.element(rng.sample(range(1, 12), 11))

    M = SubsetM(group, tuple(draw() for _ in range(4)) + (group.identity(),))
    for u in [draw() for _ in range(5)] + [M.elements[2]]:
        close, dist = closest_set(M, u)
        distances = [metric(u, v) for v in M]
        assert dist == min(distances)
        assert close == tuple(v for v, d in zip(M, distances) if d == dist)


# --- tables -----------------------------------------------------------------


def test_retraction_table_demo_values(s3):
    demo1 = subset(s3, (1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2))
    expected = {
        (1, 2, 3): (1, 2, 3),
        (1, 3, 2): (1, 3, 2),
        (2, 1, 3): (2, 1, 3),
        (2, 3, 1): (2, 1, 3),
        (3, 1, 2): (3, 1, 2),
        (3, 2, 1): (3, 1, 2),
    }
    for method in ("algebraic", "matroid"):
        table = retraction_table(demo1, method=method)
        assert {u: v.window for u, v in table.as_dict.items()} == expected
    assert retraction_table(demo1).provenance == "algebraic-greedy"
    assert (
        retraction_table(demo1, method="matroid").provenance
        == "matroid-minimum"
    )


def test_table_validation(s3):
    demo = subset(s3, (1, 2, 3), (3, 2, 1))
    table = retraction_table(demo)
    images = list(table.images)
    assert RetractionTable(s3, demo.elements, images) == table
    with pytest.raises(ValueError, match="images"):  # no longer covers the group
        RetractionTable(s3, demo.elements, images[:-1])
    swapped = [s3.element((2, 1, 3))] + images[1:]
    with pytest.raises(ValueError, match="not a target"):  # images lie in the targets
        RetractionTable(s3, demo.elements, swapped)
    fixed_wrong = [s3.element((3, 2, 1))] + images[1:]
    with pytest.raises(ValueError, match="not fixed"):  # a target must stay fixed
        RetractionTable(s3, demo.elements, fixed_wrong)


def test_table_retract_lookup(s3):
    demo = subset(s3, (1, 2, 3), (3, 2, 1))
    table = retraction_table(demo)
    u = SignedPermutation(s3, (2, 3, 1))
    assert table.retract(u) == algebraic_retract(demo, u)


def test_table_retract_rejects_other_groups(s3, s4, bc3):
    demo1 = subset(s3, (1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2))
    table = retraction_table(demo1)
    for foreign in (bc3.identity(), s4.identity()):
        with pytest.raises(DescriptorMismatch):
            table.retract(foreign)
    assert table.retract(s3.identity()).window == (1, 2, 3)


def test_retractions_refuse_base_elements_of_other_groups(s3, s4, bc3):
    # BC3 windows have the length of S3 windows, so only the group check
    # stands between them and a translated array of the right shape
    M = subset(s3, (1, 2, 3), (2, 1, 3), (3, 2, 1))
    for foreign in (bc3.element((-1, 2, 3)), bc3.identity(), s4.identity()):
        with pytest.raises(DescriptorMismatch):
            algebraic_retract(M, foreign)
        with pytest.raises(DescriptorMismatch):
            matroid_retract(M, foreign)
        with pytest.raises(DescriptorMismatch):
            closest_set(M, foreign)


# --- the translated-array kernels against scalar order and metric -------------

_A, _BC, _D = WeylType.A, WeylType.BC, WeylType.D
_KERNEL_GROUPS = [
    GroupDescriptor((Factor(_A, 3),)),
    GroupDescriptor((Factor(_A, 4),)),
    GroupDescriptor((Factor(_BC, 2),)),
    GroupDescriptor((Factor(_BC, 3),)),
    GroupDescriptor((Factor(_A, 2), Factor(_BC, 2))),
    GroupDescriptor((Factor(_D, 2),)),
    GroupDescriptor((Factor(_A, 2), Factor(_D, 3))),
    GroupDescriptor((Factor(_D, 4),)),
    GroupDescriptor((Factor(_D, 5),)),
    GroupDescriptor((Factor(_BC, 2), Factor(_D, 3))),
]
# the tests that visit every base element leave out D5: its 1920 base
# elements against the scalar oracles would take about 10 s a test
_WHOLE_W_GROUPS = [g for g in _KERNEL_GROUPS if g.order() < 1920]


@st.composite
def subsets_and_bases(draw):
    group = draw(st.sampled_from(_KERNEL_GROUPS))
    pool = elements(group)
    members = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    return SubsetM(group, tuple(members)), draw(st.sampled_from(pool))


@settings(max_examples=200, deadline=None)
@given(case=subsets_and_bases())
def test_kernels_match_scalar_order_and_metric(case):
    M, u = case
    iu = inverse(u)
    translated = [(compose(iu, v), v) for v in M]
    for side in ("min", "max"):
        def leq(x, y):
            return bruhat_leq(x, y) if side == "min" else bruhat_leq(y, x)

        expected = tuple(
            v for tv, v in translated
            if not any(tw != tv and leq(tw, tv) for tw, _ in translated)
        )
        assert _extremal_elements(M, [u], side) == [expected]
        for tc, c in translated:
            assert _dominates_all(M, u, c, side) == all(leq(tc, tw) for tw, _ in translated)
    dists = [metric(u, v) for v in M]
    best = min(dists)
    assert closest_set(M, u) == (tuple(v for v, d in zip(M, dists) if d == best), best)


def test_extremal_scan_in_one_row_chunks(monkeypatch):
    rng = random.Random(26)
    cases = []
    for g in (GroupDescriptor.simple(_A, 4), GroupDescriptor.simple(_BC, 3),
              GroupDescriptor.simple(_D, 4)):
        pool = list(elements(g))
        for _ in range(15):
            M = SubsetM(g, tuple(rng.sample(pool, rng.randint(2, min(40, len(pool))))))
            cases.append((M, rng.choice(pool)))
    sides = ("min", "max")
    whole = [_extremal_elements(M, [u], side) for M, u in cases for side in sides]
    monkeypatch.setattr(retraction, "_SCAN_BUDGET", 1)
    assert [_extremal_elements(M, [u], side) for M, u in cases for side in sides] == whole


def test_fano_scan_agrees_with_greedy_first():
    # the scan over all 4032 members runs in chunks of the default budget
    M = fano_matroid_s7()
    assert retraction._SCAN_BUDGET // len(M) < len(M)
    u = elements(M.group)[1234]
    assert scan_retract(M, u) == matroid_retract(M, u)


# --- the order route batched over base elements -------------------------------


@st.composite
def kernel_subsets(draw):
    """A subset of a `_WHOLE_W_GROUPS` group: on request, a product of
    per-factor sets of local windows; otherwise any members, which on a
    product group are mostly not a product."""
    group = draw(st.sampled_from(_WHOLE_W_GROUPS))
    pool = elements(group)
    if draw(st.booleans()):
        picks = []
        for j in range(len(group.factors)):
            local = sorted({w.local_windows()[j] for w in pool})
            picks.append(set(draw(st.lists(st.sampled_from(local), min_size=1, max_size=3, unique=True))))
        members = [w for w in pool if all(loc in p for loc, p in zip(w.local_windows(), picks))]
    else:
        members = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    return SubsetM(group, tuple(members))


@settings(max_examples=60, deadline=None)
@given(M=kernel_subsets(), side=st.sampled_from(("min", "max")), greedy_first=st.booleans())
def test_batched_extremal_sets_match_the_scan_at_every_base(M, side, greedy_first):
    us = elements(M.group)
    got = list(retraction._extremal_sets(M, us, side, greedy_first))
    assert got == [_extremal_elements(M, [u], side)[0] for u in us]


def _bruhat_extremal_sets(M, us, side):
    """Per u, the members whose translate compose(inverse(u), v) has no
    other translate below it (side "max": above), by `bruhat_leq`."""
    out = []
    for u in us:
        iu = inverse(u)
        translated = [(compose(iu, v), v) for v in M]
        out.append(tuple(
            v for tv, v in translated
            if not any(
                tw != tv and (bruhat_leq(tw, tv) if side == "min" else bruhat_leq(tv, tw))
                for tw, _ in translated
            )
        ))
    return out


@settings(max_examples=30, deadline=None, derandomize=True)
@given(M=kernel_subsets(), side=st.sampled_from(("min", "max")))
def test_batched_scan_matches_bruhat_oracle_in_every_chunking(M, side):
    us = elements(M.group)
    expected = _bruhat_extremal_sets(M, us, side)
    m, cost = len(M), retraction._scan_cost(M)
    # a budget of k * cost gives a step of k rows: one row per chunk, row
    # chunks with a short last one (m - 1) and without (m), five whole base
    # elements per chunk (no group order is a multiple of five), and every
    # base element in one chunk
    steps = [1, m - 1, m, 5 * m, len(us) * m]
    for budget in (step * cost for step in steps):
        with mock.patch.object(retraction, "_SCAN_BUDGET", budget):
            assert _extremal_elements(M, us, side) == expected
            assert _extremal_elements(M, [], side) == []


def test_batched_extremal_sets_in_one_base_chunks(monkeypatch):
    rng = random.Random(27)
    cases = []
    for g in _WHOLE_W_GROUPS:
        pool = list(elements(g))
        for _ in range(4):
            cases.append(SubsetM(g, tuple(rng.sample(pool, rng.randint(1, min(30, len(pool)))))))
    cases.append(SubsetM(_KERNEL_GROUPS[-1], tuple(elements(_KERNEL_GROUPS[-1])[:24])))

    def run():
        return [
            list(retraction._extremal_sets(M, elements(M.group), side, True))
            for M in cases
            for side in ("min", "max")
        ]

    whole = run()
    assert any(retraction._batch_size(M) > 1 for M in cases)
    monkeypatch.setattr(retraction, "_BATCH_BUDGET", 1)
    assert all(retraction._batch_size(M) == 1 for M in cases)
    assert run() == whole


def test_dominates_all_returns_a_bool(bc2):
    # the traced benchmark run wraps it by name and calls bool() on it
    M = subset(bc2, (1, 2), (2, 1), (-1, 2))
    for u in elements(bc2):
        for side in ("min", "max"):
            cand = algebraic_retract(M, u, side=side)
            assert type(_dominates_all(M, u, cand, side)) is bool


def _outcome(fn, *args, **kwargs):
    """What fn returns, or the payload of the `NotAMatroidAt` it raises."""
    try:
        return fn(*args, **kwargs)
    except NotAMatroidAt as exc:
        return ("NotAMatroidAt", exc.u, exc.minimals)


def test_order_route_never_calls_the_greedy_route(monkeypatch):
    # the order route must stay independent of the greedy one, on a product
    # M (a demo fixed-point set) and on a non-product M in a product group
    a1bc2 = GroupDescriptor((Factor(_A, 2), Factor(_BC, 2)))
    cases = [
        fixed_points(RationalMatrix(DEMO_MATRIX_1)),
        subset(a1bc2, (1, 2, 3, 4), (2, 1, 4, 3), (1, 2, -3, 4), (2, 1, 3, -4)),
    ]
    assert cases[0].is_product and not cases[1].is_product

    def scan_answers(M):
        us = elements(M.group)
        verdicts = []
        for side in ("min", "max"):
            failures = tuple(
                (u, ext) for u, ext in zip(us, _extremal_elements(M, us, side)) if len(ext) != 1
            )
            verdicts.append(MatroidVerdict(not failures, side, failures))
        table = _outcome(retraction_table, M, method="matroid", greedy_first=False)
        retracts = [_outcome(scan_retract, M, u) for u in us]
        return verdicts, table, retracts

    expected = [scan_answers(M) for M in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the order route called algebraic_retract")

    scans = []
    scan = retraction._extremal_elements

    def counted_scan(M, us, side):
        scans.extend(us)
        return scan(M, us, side)

    monkeypatch.setattr(retraction, "algebraic_retract", refuse)
    monkeypatch.setattr(retraction, "_extremal_elements", counted_scan)
    for M, (verdicts, table, retracts) in zip(cases, expected):
        for verdict in verdicts:
            scans.clear()
            assert is_coxeter_matroid(M, verdict.side) == verdict
            # every unique extremum is read off in the batch, so only the
            # base elements without one reach the scan, each once
            assert len(scans) == len(verdict.failures)
            assert scans == [u for u, _ in verdict.failures]
        assert _outcome(retraction_table, M, method="matroid") == table
        assert [_outcome(matroid_retract, M, u) for u in elements(M.group)] == retracts
    assert not expected[0][0][0].failures and expected[1][0][0].failures


# --- the type-D order on integer rows against the lifting-property walk -------


def _order_matrix(group, windows, parity=True):
    """leq[i, j]: window i <= window j, read off the sorted-prefix rows and,
    with `parity`, the parity keys of every D factor."""
    n = group.window_length
    to_rank = retraction._letter_lookups(group, [group.identity().window])
    ranks = to_rank[0, n + np.array(windows, dtype=np.int64)]
    rows = sorted_prefix_rows(group, ranks)
    leq = (rows[:, None, :] <= rows[None, :, :]).all(axis=2)
    for off, f in group.segments():
        if parity and f.type is _D:
            keys = parity_keys(f.rank, ranks[:, off : off + f.rank - 1])
            leq &= ((keys[:, None, :] ^ keys[None, :, :]) != 1).all(axis=2)
    return leq


@pytest.mark.parametrize("group", [
    GroupDescriptor.simple(_D, 2),
    GroupDescriptor.simple(_D, 3),
    GroupDescriptor.simple(_D, 4),
    GroupDescriptor((Factor(_A, 1), Factor(_D, 3))),
], ids=str)
def test_d_order_rows_match_lifting_walk_on_every_pair(group):
    pool = elements(group)
    windows = [w.window for w in pool]
    if len(group.factors) == 1:
        expected = [[_bruhat_leq_d(v, w) for w in windows] for v in windows]
        # the scalar order meets the walk too
        assert [[bruhat_leq(v, w) for w in pool] for v in pool] == expected
    else:
        closure = covering_closure(group)
        expected = [[oracle_leq(closure, v, w) for w in pool] for v in pool]
    assert (_order_matrix(group, windows) == np.array(expected)).all()


def _interval(group, top):
    return SubsetM(group, bruhat_interval(group.identity(), group.element(top)))


@pytest.mark.parametrize("M", [
    _interval(GroupDescriptor.simple(_D, 4), (2, -4, -1, 3)),
    _interval(GroupDescriptor((Factor(_A, 1), Factor(_D, 3))), (1, -2, -3, 4)),
], ids=["D4-interval", "A1xD3-interval"])
def test_set_parity_keys_equal_each_members_keys(M):
    # the keys of a prefix set at level k are those of every member's
    # translated head whose first k letters form that set
    n = M.group.window_length
    to_rank = retraction._letter_lookups(M.group, [u.window for u in elements(M.group)])
    # the D factor is the last one
    (off, f), levels = list(M.group.segments())[-1], M.prefix_sets[-1]
    r = f.rank
    assert f.type is _D
    per_set = list(retraction._set_parity_keys(r, off, levels, to_rank))
    windows = np.array([w.window for w in M], dtype=np.int64)
    per_member = parity_keys(r, to_rank[:, n + windows[:, off : off + r - 1]])
    assert len(per_set) == r - 1
    for k, keys in enumerate(per_set, start=1):
        assert keys.shape == (len(levels[k - 1]), len(to_rank), k)
        row = {tuple(s): i for i, s in enumerate(levels[k - 1].tolist())}
        for j, w in enumerate(windows.tolist()):
            theirs = per_member[:, j, k * (k - 1) // 2 : k * (k + 1) // 2]
            assert (keys[row[tuple(sorted(w[off : off + k]))]] == theirs).all()
    # some key is full, so the comparison saw more than -1
    assert any((keys >= 0).any() for keys in per_set)


@pytest.mark.parametrize("group", [
    GroupDescriptor.simple(_A, 4),
    GroupDescriptor.simple(_BC, 3),
    GroupDescriptor.simple(_D, 4),
    GroupDescriptor((Factor(_A, 2), Factor(_D, 3), Factor(_BC, 2))),
], ids=str)
def test_prefix_ids_name_each_members_head(group):
    rng = random.Random(19)
    pool = elements(group)
    for size in (1, 7, 40):
        M = SubsetM(group, tuple(rng.sample(pool, min(size, len(pool)))))
        for (off, f), levels, ids in zip(group.segments(), M.prefix_sets, M.prefix_ids):
            assert len(levels) == len(ids) == f.rank
            for k, (sets, at) in enumerate(zip(levels, ids), start=1):
                assert at.shape == (len(M),)
                heads = [tuple(sorted(w.window[off : off + k])) for w in M]
                assert [tuple(sets[i]) for i in at.tolist()] == heads
                # every set is some member's head, once
                assert sorted(set(heads)) == [tuple(row) for row in sets.tolist()]


def test_d_order_needs_the_parity_condition():
    group = GroupDescriptor.simple(_D, 4)
    windows = [w.window for w in elements(group)]
    expected = np.array([[_bruhat_leq_d(v, w) for w in windows] for v in windows])
    prefix_only = _order_matrix(group, windows, parity=False)
    # the sorted-prefix rows alone give the order of B4 restricted to D4
    assert (prefix_only >= expected).all()
    assert (prefix_only & ~expected).sum() == 754


@pytest.mark.parametrize("r", [5, 6])
def test_d_order_rows_match_lifting_walk_on_b_comparable_pairs(r):
    rng = random.Random(r)
    group = GroupDescriptor.simple(_D, r)

    def draw():
        win = [a * rng.choice((1, -1)) for a in rng.sample(range(1, r + 1), r)]
        if sum(v < 0 for v in win) % 2:
            win[-1] = -win[-1]
        return tuple(win)

    pairs, rejected = 0, 0
    while pairs < 400:
        v, w = draw(), draw()
        if not _order_matrix(group, [v, w], parity=False)[0, 1]:
            continue
        pairs += 1
        expected = _bruhat_leq_d(v, w)
        rejected += not expected
        assert _order_matrix(group, [v, w])[0, 1] == expected, (v, w)
        assert bruhat_leq(group.element(v), group.element(w)) == expected, (v, w)
    # B-comparable pairs that D rejects do occur, so condition (ii) was tested
    assert rejected > 0
