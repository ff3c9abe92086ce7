import itertools
import random

import pytest

from oracles import covering_closure, oracle_leq
from weylret.errors import DescriptorMismatch, NotAMatroidAt, NotAProduct, ParseError
from weylret.retraction import (
    RetractionTable,
    SubsetM,
    algebraic_retract,
    closest_set,
    matroid_retract,
    retraction_table,
)
from weylret.weyl import (
    Factor,
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    compose,
    elements,
    inverse,
    letter_positions,
    longest_element,
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


def test_subset_json_round_trip(bc2):
    M = subset(bc2, (-2, -1), (1, 2))
    assert SubsetM.from_json(M.to_json()) == M
    with pytest.raises(ParseError):
        SubsetM.from_json({"group": bc2.to_json()})


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
        for flag in (True, False):
            if expected is None:
                with pytest.raises(NotAMatroidAt):
                    matroid_retract(M, u, greedy_first=flag)
            else:
                assert matroid_retract(M, u, greedy_first=flag) == expected


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
    data = table.to_json()
    assert RetractionTable.from_json(data) == table
    broken = dict(data)
    broken["map"] = data["map"][:-1]
    with pytest.raises(ParseError):  # no longer covers the group
        RetractionTable.from_json(broken)
    broken = dict(data)
    broken["map"] = [
        [u, ([2, 1, 3] if u == [1, 2, 3] else v)] for u, v in data["map"]
    ]
    with pytest.raises(ParseError):  # a target must stay fixed
        RetractionTable.from_json(broken)


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
