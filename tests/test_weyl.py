import copy
import dataclasses
import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bfs_lengths,
    canonical_key_by_factors,
    chambers_holding,
    covering_closure,
    oracle_leq,
)
from weylret.errors import (
    BoundaryPoint,
    DescriptorMismatch,
    EnumerationCapExceeded,
)
from weylret.retraction import SubsetM, algebraic_retract
from weylret.weyl import (
    DEFAULT_ENUMERATION_CAP,
    Factor,
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    act_on_vector,
    bruhat_leq,
    chamber_of,
    closed_chambers,
    compose,
    elements,
    enumerate_group,
    extended_window,
    inverse,
    is_negative_root_vector,
    length,
    letter_positions,
    longest_element,
    metric,
    order_key,
    root_set,
)


def mixed_group() -> GroupDescriptor:
    # letters 1..3 permute freely, letters 4..5 may bar
    return GroupDescriptor((Factor(WeylType.A, 3), Factor(WeylType.BC, 2)))


# --- construction and validation -----------------------------------------


def test_descriptor_derived_fields_stay_out_of_identity():
    g = mixed_group()
    assert g.window_length == g.ambient_dim == 5
    assert [f.name for f in dataclasses.fields(g) if f.compare] == ["factors"]
    twin = GroupDescriptor([Factor(WeylType.A, 3), Factor(WeylType.BC, 2)])
    assert twin == g and hash(twin) == hash(g)
    assert repr(g) == f"GroupDescriptor(factors={g.factors!r})"
    assert g.to_json() == {
        "factors": [{"type": "A", "rank": 3}, {"type": "BC", "rank": 2}]
    }
    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert clone == g and hash(clone) == hash(g)
        assert clone.window_length == 5
        assert clone.segments() == g.segments()


def test_descriptor_hash_is_remade_when_unpickled():
    """The hash is computed once per descriptor; one pickled in a process
    with another string hash seed must not bring its hash along."""
    code = (
        "import pickle, sys\n"
        "from weylret.weyl import Factor, GroupDescriptor, WeylType\n"
        "g = GroupDescriptor((Factor(WeylType.A, 3), Factor(WeylType.BC, 2)))\n"
        "sys.stdout.write(pickle.dumps(g).hex())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    g = mixed_group()
    clone = pickle.loads(bytes.fromhex(out))
    assert clone == g and hash(clone) == hash(g) == hash((g.factors,))
    assert {g: "found"}[clone] == "found"


def test_window_validation(s3, bc2, d3):
    with pytest.raises(ValueError):
        SignedPermutation(s3, (1, 2))  # wrong length
    with pytest.raises(ValueError):
        SignedPermutation(s3, (1, 1, 2))  # repeated letter
    with pytest.raises(ValueError):
        SignedPermutation(s3, (1, -2, 3))  # bars in type A
    with pytest.raises(ValueError):
        SignedPermutation(d3, (1, -2, 3))  # odd bar count in type D
    SignedPermutation(d3, (1, -2, -3))
    SignedPermutation(bc2, (-1, -2))
    with pytest.raises(ValueError):
        Factor(WeylType.BC, 1)
    with pytest.raises(ValueError):
        Factor(WeylType.D, 1)


def test_mixed_group_segments():
    g = mixed_group()
    assert g.window_length == 5
    assert g.order() == 6 * 8
    assert [off for off, _ in g.segments()] == [0, 3]
    # letters of the second factor live in 4..5
    SignedPermutation(g, (2, 1, 3, -5, -4))
    with pytest.raises(ValueError):
        SignedPermutation(g, (2, 1, 3, -1, -4))


def test_order_key_sorts_bar_order():
    letters = [1, 2, 3, -3, -2, -1]
    shuffled = [3, -1, 1, -3, 2, -2]
    assert sorted(shuffled, key=lambda v: order_key(v, 3)) == letters
    with pytest.raises(ValueError):
        order_key(0, 3)
    with pytest.raises(ValueError):
        order_key(4, 3)


# --- composition, inverse, action ----------------------------------------


def test_group_axioms_sampled():
    rng = random.Random(5)
    for g in (
        GroupDescriptor.simple(WeylType.A, 4),
        GroupDescriptor.simple(WeylType.BC, 3),
        GroupDescriptor.simple(WeylType.D, 3),
        mixed_group(),
    ):
        pool = list(elements(g))
        e = g.identity()
        for _ in range(25):
            v, w, x = (rng.choice(pool) for _ in range(3))
            assert compose(v, inverse(v)) == e
            assert compose(inverse(v), v) == e
            assert compose(compose(v, w), x) == compose(v, compose(w, x))
            assert inverse(compose(v, w)) == compose(inverse(w), inverse(v))


def test_compose_windows_hand_values(s3, bc2):
    v = SignedPermutation(s3, (2, 3, 1))
    w = SignedPermutation(s3, (1, 3, 2))
    # (vw)(i) = v(w(i))
    assert compose(v, w).window == (2, 1, 3)
    a = SignedPermutation(bc2, (2, -1))
    b = SignedPermutation(bc2, (-2, 1))
    assert compose(a, b).window == (1, 2)
    assert inverse(a).window == (-2, 1)


def test_descriptor_mismatch(s3, s4):
    with pytest.raises(DescriptorMismatch):
        compose(s3.identity(), s4.identity())


def test_action_is_action_and_preserves_abs():
    rng = random.Random(11)
    g = mixed_group()
    pool = list(elements(g))
    nu = (3, 1, 4, 7, 2)
    for _ in range(20):
        v, w = rng.choice(pool), rng.choice(pool)
        assert act_on_vector(v, act_on_vector(w, nu)) == act_on_vector(
            compose(v, w), nu
        )
        assert sorted(map(abs, act_on_vector(v, nu))) == sorted(map(abs, nu))


def test_extended_window_and_positions(bc2):
    w = SignedPermutation(bc2, (2, -1))
    assert extended_window(w) == (2, -1, 1, -2)
    pos = letter_positions(w)
    assert pos[2] == 0 and pos[-1] == 1 and pos[1] == 2 and pos[-2] == 3


# --- length ----------------------------------------------------------------


def test_length_hand_values(s3, bc2, bc3, d3):
    assert length(SignedPermutation(s3, (3, 2, 1))) == 3
    assert length(SignedPermutation(bc2, (1, -2))) == 1
    assert length(SignedPermutation(bc2, (-1, 2))) == 3
    assert length(SignedPermutation(bc2, (-1, -2))) == 4
    assert length(SignedPermutation(bc3, (-1, 2, 3))) == 5
    # every e_i +- e_j inverts except e1 - e2
    assert length(SignedPermutation(d3, (-2, -1, 3))) == 5
    d2 = GroupDescriptor.simple(WeylType.D, 2)
    assert length(SignedPermutation(d2, (-2, -1))) == 1


@pytest.mark.parametrize(
    "typ,rank",
    [("A", 4), ("BC", 2), ("BC", 3), ("D", 3), ("D", 4)],
)
def test_length_equals_bfs_word_length(typ, rank):
    g = GroupDescriptor.simple(typ, rank)
    dist = bfs_lengths(g)
    assert len(dist) == g.order()
    for w in elements(g):
        assert length(w) == dist[w.window], w


def test_length_on_product_group():
    g = mixed_group()
    dist = bfs_lengths(g)
    for w in elements(g):
        assert length(w) == dist[w.window]


def test_metric_is_word_metric(s4):
    rng = random.Random(3)
    pool = list(elements(s4))
    for _ in range(30):
        v, w = rng.choice(pool), rng.choice(pool)
        assert metric(v, w) == length(compose(inverse(v), w))
        assert metric(v, w) == metric(w, v)
        assert (metric(v, w) == 0) == (v == w)


def test_longest_element():
    for typ, rank in [("A", 4), ("BC", 3), ("D", 3), ("D", 4)]:
        g = GroupDescriptor.simple(typ, rank)
        w0 = longest_element(g)
        assert length(w0) == len(g.positive_roots())
        assert max(length(w) for w in elements(g)) == length(w0)
        # w0 is an involution
        assert compose(w0, w0) == g.identity()
    assert longest_element(GroupDescriptor.simple("A", 3)).window == (3, 2, 1)
    assert longest_element(GroupDescriptor.simple("BC", 2)).window == (-1, -2)
    # even rank: all letters barred; odd rank: the last one stays positive
    assert longest_element(GroupDescriptor.simple("D", 4)).window == (-1, -2, -3, -4)
    assert longest_element(GroupDescriptor.simple("D", 3)).window == (-1, -2, 3)


def test_reflections_and_roots():
    for typ, rank in [("A", 4), ("BC", 3), ("D", 3)]:
        g = GroupDescriptor.simple(typ, rank)
        refl = g.reflections()
        assert len(refl) == len(g.positive_roots())
        for t in refl:
            assert compose(t, t) == g.identity()
            assert length(t) % 2 == 1


@pytest.mark.parametrize(
    "factors,simple_roots,simple_reflections",
    [
        (
            [("A", 4)],
            ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)),
            ((2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3)),
        ),
        (
            [("BC", 3)],
            ((1, -1, 0), (0, 1, -1), (0, 0, 2)),
            ((2, 1, 3), (1, 3, 2), (1, 2, -3)),
        ),
        (
            [("D", 4)],
            ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)),
            ((2, 1, 3, 4), (1, 3, 2, 4), (1, 2, 4, 3), (1, 2, -4, -3)),
        ),
        ([("D", 2)], ((1, -1), (1, 1)), ((2, 1), (-2, -1))),
        (
            [("A", 2), ("BC", 2)],
            ((1, -1, 0, 0), (0, 0, 1, -1), (0, 0, 0, 2)),
            ((2, 1, 3, 4), (1, 2, 4, 3), (1, 2, 3, -4)),
        ),
    ],
    ids=["A4", "BC3", "D4", "D2", "A2xBC2"],
)
def test_simple_roots_and_reflections_are_pinned(factors, simple_roots, simple_reflections):
    # written out by hand, since the BFS and covering oracles are built
    # from these same generators
    g = GroupDescriptor(tuple(Factor(WeylType(t), r) for t, r in factors))
    assert g.simple_roots() == simple_roots
    assert tuple(s.window for s in g.simple_reflections()) == simple_reflections


@pytest.mark.parametrize(
    "group",
    [
        GroupDescriptor.simple("A", 4),
        GroupDescriptor.simple("BC", 3),
        GroupDescriptor.simple("D", 4),
        mixed_group(),
    ],
    ids=["A4", "BC3", "D4", "A3xBC2"],
)
def test_reflections_obey_the_reflection_law(group):
    """act_on_vector(s_beta, gamma) = gamma - 2<gamma,beta>/<beta,beta> beta
    for every positive root beta and every root gamma, with one distinct
    reflection per positive root."""
    positive = group.positive_roots()
    refl = group.reflections()
    assert len(refl) == len(positive) == len({t.window for t in refl})
    for beta, t in zip(positive, refl):
        norm = sum(b * b for b in beta)
        for gamma in group.all_roots():
            k = Fraction(2 * sum(c * b for c, b in zip(gamma, beta)), norm)
            assert act_on_vector(t, gamma) == tuple(c - k * b for c, b in zip(gamma, beta))


@pytest.mark.parametrize(
    "group",
    [GroupDescriptor.simple("A", r) for r in range(1, 6)]
    + [GroupDescriptor.simple("BC", r) for r in range(2, 6)]
    + [GroupDescriptor.simple("D", r) for r in range(2, 7)]
    + [mixed_group()],
    ids=lambda g: "x".join(f"{f.type.value}{f.rank}" for f in g.factors),
)
def test_longest_element_sends_every_positive_root_negative(group):
    # R(w0), the roots w0^-1 sends negative, is exactly the positive roots,
    # the first half of all_roots()
    assert root_set(longest_element(group)) == (1 << len(group.positive_roots())) - 1


# --- Bruhat order ----------------------------------------------------------


@pytest.mark.parametrize(
    "typ,rank",
    [("A", 3), ("A", 4), ("BC", 2), ("BC", 3), ("BC", 4), ("D", 2), ("D", 3), ("D", 4)],
)
def test_bruhat_vs_covering_closure(typ, rank):
    g = GroupDescriptor.simple(typ, rank)
    closure = covering_closure(g)
    pool = elements(g)
    bad = [
        (v.window, w.window)
        for v in pool
        for w in pool
        if bruhat_leq(v, w) != oracle_leq(closure, v, w)
    ]
    assert bad == []


def test_bruhat_on_product_group():
    g = mixed_group()
    closure = covering_closure(g)
    rng = random.Random(17)
    pool = list(elements(g))
    for _ in range(400):
        v, w = rng.choice(pool), rng.choice(pool)
        assert bruhat_leq(v, w) == oracle_leq(closure, v, w)


def test_bruhat_hand_values(s3, bc2):
    leq = lambda g, a, b: bruhat_leq(
        SignedPermutation(g, a), SignedPermutation(g, b)
    )
    assert leq(s3, (1, 3, 2), (3, 1, 2))
    assert not leq(s3, (2, 1, 3), (1, 3, 2))
    assert leq(bc2, (1, 2), (1, -2))
    assert not leq(bc2, (1, -2), (1, 2))
    assert not leq(bc2, (1, -2), (2, 1))
    assert leq(bc2, (2, 1), (-2, -1))


# --- algebraic laws on random elements ------------------------------------

_LAW_GROUPS = [
    GroupDescriptor.simple(WeylType.A, 4),  # A3, that is S4
    GroupDescriptor.simple(WeylType.BC, 3),
    GroupDescriptor.simple(WeylType.D, 4),
    mixed_group(),
]


@st.composite
def element_triples(draw):
    """Three elements of one group; the second is often the first times
    a reflection, so that Bruhat-comparable pairs come up."""
    group = draw(st.sampled_from(_LAW_GROUPS))
    pool = elements(group)
    v, w, x = (draw(st.sampled_from(pool)) for _ in range(3))
    if draw(st.booleans()):
        w = compose(v, draw(st.sampled_from(group.reflections())))
    return v, w, x


@settings(max_examples=60, deadline=None)
@given(triple=element_triples())
def test_group_axioms_property(triple):
    v, w, x = triple
    e = v.group.identity()
    assert compose(compose(v, w), x) == compose(v, compose(w, x))
    assert compose(e, v) == v == compose(v, e)
    assert compose(v, inverse(v)) == e == compose(inverse(v), v)


@settings(max_examples=60, deadline=None)
@given(triple=element_triples())
def test_length_and_metric_laws_property(triple):
    v, w, _ = triple
    assert length(v) == length(inverse(v))
    assert metric(v, w) == metric(w, v)


_ROOT_SET_GROUPS = [
    GroupDescriptor.simple(WeylType.A, 5),  # A4, that is S5
    GroupDescriptor.simple(WeylType.BC, 3),
    GroupDescriptor.simple(WeylType.D, 4),
    GroupDescriptor((Factor(WeylType.A, 3), Factor(WeylType.D, 3), Factor(WeylType.BC, 2))),
]


@st.composite
def element_pairs(draw):
    pool = elements(draw(st.sampled_from(_ROOT_SET_GROUPS)))
    return draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@settings(max_examples=100, deadline=None)
@given(pair=element_pairs())
def test_root_set_xor_counts_metric_property(pair):
    # metric goes through `length`, which counts inversions with no root set
    u, v = pair
    assert (root_set(u) ^ root_set(v)).bit_count() // 2 == metric(u, v)
    assert root_set(u).bit_count() == len(u.group.positive_roots())


@settings(max_examples=60, deadline=None)
@given(triple=element_triples())
def test_bruhat_antisymmetric_and_graded_property(triple):
    v, w, _ = triple
    if bruhat_leq(v, w) and bruhat_leq(w, v):
        assert v == w
    if bruhat_leq(v, w):
        assert length(v) < length(w) or v == w
    if v == w:
        assert bruhat_leq(v, w)


# --- chambers --------------------------------------------------------------


def test_chamber_hand_values(s3, bc2):
    assert chamber_of((1, -1, 0), s3).window == (2, 3, 1)
    assert chamber_of((-3, -1), bc2).window == (1, 2)
    assert chamber_of((5, 0, 7), s3).window == (2, 1, 3)


def test_chamber_boundary(s3, bc2, d3):
    with pytest.raises(BoundaryPoint):
        chamber_of((1, 1, 0), s3)
    with pytest.raises(BoundaryPoint):
        chamber_of((0, 5), bc2)  # zero coordinate off limits in type BC
    with pytest.raises(BoundaryPoint):
        chamber_of((1, -1, 2), d3)  # tied absolute values
    with pytest.raises(BoundaryPoint):
        chamber_of((0, 0, 1), d3)  # two zeros
    # a single zero is interior for type D
    assert chamber_of((-3, -2, 0), d3) == d3.identity()


@pytest.mark.parametrize(
    "typ,rank,nu",
    [
        ("A", 4, (0, 1, 2, 3)),
        ("BC", 3, (-3, -2, -1)),
        ("D", 3, (-3, -2, 0)),
    ],
)
def test_chamber_of_orbit_point_recovers_element(typ, rank, nu):
    g = GroupDescriptor.simple(typ, rank)
    assert chamber_of(nu, g) == g.identity()
    for w in elements(g):
        assert chamber_of(act_on_vector(w, nu), g) == w


def test_chamber_of_orbit_point_mixed_group():
    g = mixed_group()
    nu = (0, 1, 2, -2, -1)
    assert chamber_of(nu, g) == g.identity()
    for w in elements(g):
        assert chamber_of(act_on_vector(w, nu), g) == w


# Lie ranks as on the command line: A3 acts on windows of length 4
_WALK_GROUPS = {
    "A3": GroupDescriptor.simple(WeylType.A, 4),
    "BC3": GroupDescriptor.simple(WeylType.BC, 3),
    "D4": GroupDescriptor.simple(WeylType.D, 4),
    "A1xBC2": GroupDescriptor((Factor(WeylType.A, 2), Factor(WeylType.BC, 2))),
}
# small integers land on walls often; fractions test the walk off the lattice
_WALK_COORDS = st.integers(-2, 2) | st.fractions(-2, 2, max_denominator=3)


@pytest.mark.parametrize("name", _WALK_GROUPS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_closed_chambers_match_the_chamber_scan(name, data):
    group = _WALK_GROUPS[name]
    dim = group.ambient_dim
    lam = tuple(data.draw(st.lists(_WALK_COORDS, min_size=dim, max_size=dim)))
    want = chambers_holding(group, lam)
    assert closed_chambers(lam, group) == want
    if len(want) == 1:
        assert chamber_of(lam, group) == want[0]
    else:
        with pytest.raises(BoundaryPoint):
            chamber_of(lam, group)


def test_chamber_of_refuses_wrong_length(s3):
    with pytest.raises(ValueError, match="point length"):
        chamber_of((1, 2), s3)


def test_is_negative_root_vector():
    assert is_negative_root_vector((-1, 1, 0))
    assert not is_negative_root_vector((1, -1, 0))
    assert not is_negative_root_vector((0, 1, 1))
    assert is_negative_root_vector((0, -1, 1))


# --- enumeration and serialization ----------------------------------------


def test_enumeration_order_and_sizes(s3, bc2, d3):
    wins = [w.window for w in elements(s3)]
    assert wins == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    ]
    assert len(elements(bc2)) == 8
    assert [w.window for w in elements(bc2)][:3] == [(1, 2), (1, -2), (2, 1)]
    assert len(elements(d3)) == 24
    assert len(set(elements(d3))) == 24
    assert len(elements(mixed_group())) == 48


def _signed_windows(f: Factor, off: int) -> list[tuple[int, ...]]:
    """Every window of one factor, letters shifted by off: each
    permutation of 1..r with each choice of bars that its type allows."""
    r = f.rank
    sign_choices = [(1,) * r] if f.type is WeylType.A else itertools.product((1, -1), repeat=r)
    out = []
    for signs in sign_choices:
        if f.type is WeylType.D and signs.count(-1) % 2:
            continue
        for perm in itertools.permutations(range(1, r + 1)):
            out.append(tuple(s * (a + off) for s, a in zip(signs, perm)))
    return out


# window ranks: A5 is S5 here
_BRUTE_GROUPS = (
    [GroupDescriptor.simple(WeylType.A, r) for r in range(1, 6)]
    + [GroupDescriptor.simple(WeylType.BC, r) for r in range(2, 6)]
    + [GroupDescriptor.simple(WeylType.D, r) for r in range(2, 6)]
    + [GroupDescriptor((Factor(WeylType.D, 3), Factor(WeylType.A, 2), Factor(WeylType.BC, 2)))]
)


@pytest.mark.parametrize(
    "group", _BRUTE_GROUPS, ids=lambda g: "x".join(f"{f.type.value}{f.rank}" for f in g.factors)
)
def test_enumeration_is_the_sorted_brute_force_product(group):
    parts = [_signed_windows(f, off) for off, f in group.segments()]
    brute = [
        SignedPermutation(group, sum(combo, ())) for combo in itertools.product(*parts)
    ]
    brute.sort(key=canonical_key_by_factors)
    assert len(brute) == group.order()
    assert [w.window for w in enumerate_group(group)] == [w.window for w in brute]


def test_enumeration_cap():
    huge = GroupDescriptor.simple(WeylType.BC, 10)
    with pytest.raises(EnumerationCapExceeded, match=f"cap {DEFAULT_ENUMERATION_CAP}"):
        list(enumerate_group(huge))
    # 7! = 5040 stays under the cap
    it = enumerate_group(GroupDescriptor.simple(WeylType.A, 7))
    assert next(it).window == (1, 2, 3, 4, 5, 6, 7)


def test_group_json_round_trip():
    for g in (
        GroupDescriptor.simple(WeylType.A, 3),
        GroupDescriptor.simple(WeylType.D, 4),
        mixed_group(),
    ):
        assert GroupDescriptor.from_json(g.to_json()) == g


@st.composite
def descriptors(draw):
    """Products of one to three factors of any type and a legal rank."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        typ = draw(st.sampled_from(list(WeylType)))
        low = 1 if typ is WeylType.A else 2
        factors.append(Factor(typ, draw(st.integers(low, 6))))
    return GroupDescriptor(tuple(factors))


@settings(max_examples=60, deadline=None)
@given(g=descriptors())
def test_group_json_round_trip_property(g):
    assert GroupDescriptor.from_json(g.to_json()) == g


def test_element_refuses_non_integer_letters(s3):
    assert s3.element([1, 2, 3]) == s3.identity()
    for bad in ([1.0, 2.0, 3.0], [True, 2, 3], ["1", 2, 3], [1, 2, 3.0]):
        with pytest.raises(ValueError, match="must be integers"):
            s3.element(bad)


# --- results built without validation would pass it ---------------------------

_UNCHECKED_GROUPS = [
    GroupDescriptor.simple(WeylType.A, 3),
    GroupDescriptor.simple(WeylType.BC, 3),
    GroupDescriptor.simple(WeylType.D, 4),
    GroupDescriptor((Factor(WeylType.A, 2), Factor(WeylType.BC, 2))),
    GroupDescriptor((Factor(WeylType.BC, 2), Factor(WeylType.D, 3))),
]


def _revalidated(w: SignedPermutation) -> bool:
    return type(w.window) is tuple and w == SignedPermutation(w.group, w.window)


@pytest.mark.parametrize("group", _UNCHECKED_GROUPS, ids=str)
def test_enumerated_elements_pass_validation(group):
    assert all(_revalidated(w) for w in enumerate_group(group))


@st.composite
def unchecked_cases(draw):
    group = draw(st.sampled_from(_UNCHECKED_GROUPS))
    pool = elements(group)
    v, w = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    # a regular point: distinct nonzero absolute values, any signs
    mags = draw(st.permutations(range(1, group.window_length + 1)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(mags), max_size=len(mags)))
    members = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    return group, v, w, tuple(m * s for m, s in zip(mags, signs)), members


@settings(max_examples=80, deadline=None)
@given(case=unchecked_cases())
def test_kernel_results_pass_validation(case):
    group, v, w, lam, members = case
    assert _revalidated(compose(v, w))
    assert _revalidated(inverse(v))
    assert _revalidated(chamber_of(lam, group))
    M = SubsetM(group, tuple(members))
    if M.is_product:
        for side in ("min", "max"):
            assert _revalidated(algebraic_retract(M, v, side=side))
