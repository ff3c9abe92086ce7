"""Named verification suites behind the `verify` command.

Each suite recomputes a body of frozen facts from scratch and reports the
number of checks performed plus any discrepancies.  Random parts are
seeded, so runs are reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

from .errors import AmbiguousBoundary, InconsistentLineality
from .exact import Membership, RationalMatrix
from .fan import build_fan, query
from .matroid import (
    bruhat_interval,
    fano_matroid_s7,
    flag_order_leq,
    is_coxeter_matroid,
    phi_polytope_check,
    two_element_analysis,
)
from .orbit import (
    fixed_points,
    geometric_table,
    plucker_support,
    sample_rational_point,
)
from .retraction import (
    RetractionTable,
    SubsetM,
    algebraic_retract,
    closest_set,
    matroid_retract,
    retraction_table,
)
from .weyl import (
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    bruhat_leq,
    compose,
    elements,
    inverse,
)

MAX_REPORTED_FAILURES = 20


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checks: int
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "checks": self.checks,
            "passed": self.passed,
            "failures": list(self.failures),
            "notes": list(self.notes),
        }


# --- Frozen demo data -----------------------------------------------------

DEMO_MATRIX_1 = ((1, 1, 0), (1, 0, 1), (1, 0, 0))
DEMO_MATRIX_2 = ((1, 0, 1), (0, 1, 0), (1, 0, 0))

EXPECTED_SUPPORT_1 = (((1,), (2,), (3,)), ((1, 2), (1, 3)), ((1, 2, 3),))
EXPECTED_SUPPORT_2 = (((1,), (3,)), ((1, 2), (2, 3)), ((1, 2, 3),))

EXPECTED_FIXED_1 = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2))
EXPECTED_FIXED_2 = ((1, 2, 3), (3, 2, 1))

EXPECTED_TABLE_1 = {
    (1, 2, 3): (1, 2, 3),
    (1, 3, 2): (1, 3, 2),
    (2, 1, 3): (2, 1, 3),
    (2, 3, 1): (2, 1, 3),
    (3, 1, 2): (3, 1, 2),
    (3, 2, 1): (3, 1, 2),
}
EXPECTED_TABLE_2 = {
    (1, 2, 3): (1, 2, 3),
    (1, 3, 2): (1, 2, 3),
    (2, 1, 3): (1, 2, 3),
    (2, 3, 1): (3, 2, 1),
    (3, 1, 2): (3, 2, 1),
    (3, 2, 1): (3, 2, 1),
}

_DEMOS = (
    ("demo-1", DEMO_MATRIX_1, EXPECTED_SUPPORT_1, EXPECTED_FIXED_1, EXPECTED_TABLE_1),
    ("demo-2", DEMO_MATRIX_2, EXPECTED_SUPPORT_2, EXPECTED_FIXED_2, EXPECTED_TABLE_2),
)


def _s(n: int) -> GroupDescriptor:
    return GroupDescriptor.simple(WeylType.A, n)


def _bc(n: int) -> GroupDescriptor:
    return GroupDescriptor.simple(WeylType.BC, n)


def _d(n: int) -> GroupDescriptor:
    return GroupDescriptor.simple(WeylType.D, n)


def _sample_matrices(
    n: int, count: int, seed: int
) -> list[RationalMatrix]:
    out = []
    for i in range(count):
        kind = "generic" if i % 2 == 0 else "sparse"
        out.append(sample_rational_point(n, seed * 100003 + n * 1009 + i, kind=kind))
    return out


def _random_subset(
    group: GroupDescriptor, rng: random.Random
) -> SubsetM:
    pool = list(elements(group))
    size = rng.randint(1, len(pool))
    return SubsetM(group, tuple(rng.sample(pool, size)))


# --- Suites ---------------------------------------------------------------

def suite_table1(count: int | None = None, seed: int = 0) -> SuiteResult:
    """All three routes reproduce the frozen six-row tables of both demo
    matrices, along with their supports and fixed points."""
    checks = 0
    failures: list[str] = []
    for label, rows, exp_support, exp_fixed, exp_table in _DEMOS:
        x = RationalMatrix(rows)
        sup = plucker_support(x)
        for k, level in enumerate(exp_support, start=1):
            checks += 1
            if sup.at(k) != level:
                failures.append(f"{label}: support at size {k} is {sup.at(k)}")
        fixed = fixed_points(sup)
        checks += 1
        if tuple(w.window for w in fixed.elements) != exp_fixed:
            failures.append(f"{label}: fixed points {[w.window for w in fixed]}")
        routes = {
            "greedy": retraction_table(fixed, method="algebraic"),
            "order": retraction_table(fixed, method="matroid"),
            "limit": geometric_table(sup),
        }
        for route, table in routes.items():
            for u in elements(_s(3)):
                checks += 1
                got = table.retract(u).window
                if got != exp_table[u.window]:
                    failures.append(
                        f"{label}/{route}: {list(u.window)} -> {list(got)},"
                        f" expected {list(exp_table[u.window])}"
                    )
    return SuiteResult("table1", checks, tuple(failures[:MAX_REPORTED_FAILURES]))


def suite_closest_unique(count: int | None = None, seed: int = 0) -> SuiteResult:
    """The word-metric-closest element of a fixed-point set is unique at
    every base element and equals the greedy retract."""
    per_n = count if count is not None else 12
    mats: list[RationalMatrix] = [RationalMatrix(DEMO_MATRIX_1), RationalMatrix(DEMO_MATRIX_2)]
    for n in (3, 4):
        mats.extend(_sample_matrices(n, per_n, seed + 1))

    def run_one(x: RationalMatrix) -> tuple[int, list[str]]:
        M = fixed_points(x)
        bad = []
        done = 0
        for u in elements(M.group):
            done += 1
            close, _ = closest_set(M, u)
            greedy = algebraic_retract(M, u)
            if len(close) != 1 or close[0].window != greedy.window:
                bad.append(
                    f"n={M.group.window_length} u={list(u.window)}:"
                    f" closest {[list(v.window) for v in close]} vs greedy {list(greedy.window)}"
                )
        return done, bad

    checks = 0
    failures: list[str] = []
    for done, bad in map(run_one, mats):
        checks += done
        failures.extend(bad)
    return SuiteResult("closest-unique", checks, tuple(failures[:MAX_REPORTED_FAILURES]))


def suite_thmb_random(count: int | None = None, seed: int = 0) -> SuiteResult:
    """Geometric limit tables of seeded random invertible matrices agree
    with the greedy tables on their fixed-point sets."""
    per_n = count if count is not None else 10
    mats: list[RationalMatrix] = []
    for n in (3, 4, 5):
        mats.extend(_sample_matrices(n, per_n, seed + 2))

    def run_one(x: RationalMatrix) -> tuple[int, list[str]]:
        sup = plucker_support(x)
        fixed = fixed_points(sup)
        geo = geometric_table(sup)
        alg = retraction_table(fixed, method="algebraic")
        bad = []
        done = 0
        for u in elements(fixed.group):
            done += 1
            if geo.retract(u).window != alg.retract(u).window:
                bad.append(
                    f"n={sup.n} u={list(u.window)}: limit {list(geo.retract(u).window)}"
                    f" vs greedy {list(alg.retract(u).window)}"
                )
        return done, bad

    checks = 0
    failures: list[str] = []
    for done, bad in map(run_one, mats):
        checks += done
        failures.extend(bad)
    return SuiteResult("thmB-random", checks, tuple(failures[:MAX_REPORTED_FAILURES]))


def suite_matroid_equiv(count: int | None = None, seed: int = 0) -> SuiteResult:
    """Order-route tables equal greedy tables on fixed-point sets, which
    also pass the unique-extremum check on both sides; and on types A and
    BC the prefix-set dominance order matches the lifted Bruhat order."""
    per_n = count if count is not None else 8
    mats: list[RationalMatrix] = [RationalMatrix(DEMO_MATRIX_1), RationalMatrix(DEMO_MATRIX_2)]
    for n in (3, 4):
        mats.extend(_sample_matrices(n, per_n, seed + 3))

    def run_one(x: RationalMatrix) -> tuple[int, list[str]]:
        fixed = fixed_points(x)
        bad = []
        done = 0
        alg = retraction_table(fixed, method="algebraic")
        mat = retraction_table(fixed, method="matroid")
        for u in elements(fixed.group):
            done += 1
            if mat.retract(u).window != alg.retract(u).window:
                bad.append(f"u={list(u.window)}: order vs greedy differ")
        for side in ("min", "max"):
            done += 1
            verdict = is_coxeter_matroid(fixed, side=side)
            if not verdict.is_matroid:
                bad.append(
                    f"unique-extremum ({side}) fails at"
                    f" {[list(u.window) for u, _ in verdict.failures[:3]]}"
                )
        return done, bad

    checks = 0
    failures: list[str] = []
    for done, bad in map(run_one, mats):
        checks += done
        failures.extend(bad)

    # independent route to the shifted Bruhat order, exhaustively on two
    # small groups
    for group in (_s(3), _bc(2)):
        elems = elements(group)
        for u in elems:
            iu = inverse(u)
            for v in elems:
                for w in elems:
                    checks += 1
                    lifted = bruhat_leq(compose(iu, v), compose(iu, w))
                    gale = flag_order_leq(v, w, u)
                    if lifted != gale:
                        failures.append(
                            f"{group.factors[0].type.value}: u={list(u.window)}"
                            f" v={list(v.window)} w={list(w.window)}:"
                            f" lifted {lifted} vs prefix-dominance {gale}"
                        )
    return SuiteResult("matroid-equiv", checks, tuple(failures[:MAX_REPORTED_FAILURES]))


def _compare_routes(label: str, M: SubsetM, known: bool = False) -> str | None:
    """A failure line when the order and polytope routes disagree on M, or
    when M is a known Coxeter matroid that they reject."""
    order_route = is_coxeter_matroid(M).is_matroid
    hull_route = phi_polytope_check(M).is_phi
    if order_route != hull_route or (known and not order_route):
        return (
            f"{label} {[list(w.window) for w in M]}:"
            f" unique-extremum {order_route} vs root-parallel {hull_route}"
        )
    return None


def suite_gs_s3_exhaustive(count: int | None = None, seed: int = 0) -> SuiteResult:
    """Unique-extremum and root-parallel-edge verdicts coincide: on every
    nonempty subset of the rank-3 symmetric group, plus seeded random
    subsets of the rank-4 symmetric and rank-2 signed groups."""
    s3 = _s(3)
    pool = list(elements(s3))
    cases: list[tuple[str, SubsetM]] = []
    for r in range(1, len(pool) + 1):
        for combo in itertools.combinations(pool, r):
            cases.append(("s3", SubsetM(s3, combo)))
    n_s4 = count if count is not None else 200
    n_bc2 = max(1, count // 4) if count is not None else 50
    rng = random.Random(seed + 4)
    for _ in range(n_s4):
        cases.append(("s4", _random_subset(_s(4), rng)))
    for _ in range(n_bc2):
        cases.append(("bc2", _random_subset(_bc(2), rng)))

    failures = [o for o in (_compare_routes(*case) for case in cases) if o is not None]
    notes = (f"{len(cases)} subsets compared across both routes",)
    return SuiteResult(
        "gs-s3-exhaustive", len(cases), tuple(failures[:MAX_REPORTED_FAILURES]), notes
    )


def _random_interval(group: GroupDescriptor, rng: random.Random) -> SubsetM:
    pool = list(elements(group))
    while True:
        lo, hi = rng.sample(pool, 2)
        if bruhat_leq(hi, lo):
            lo, hi = hi, lo
        if bruhat_leq(lo, hi):
            return SubsetM(group, bruhat_interval(lo, hi))


def suite_gs_rank4(count: int | None = None, seed: int = 0) -> SuiteResult:
    """Unique-extremum and root-parallel-edge verdicts coincide on seeded
    random subsets of the rank-4 groups S5, BC4 and D4, and both routes
    accept seeded Bruhat intervals in those groups."""
    per_group = count if count is not None else 12
    rng = random.Random(seed + 6)
    cases: list[tuple[str, SubsetM, bool]] = []
    for label, group in (("s5", _s(5)), ("bc4", _bc(4)), ("d4", _d(4))):
        for _ in range(per_group):
            cases.append((label, _random_subset(group, rng), False))
        for _ in range(max(1, per_group // 2)):
            cases.append((f"{label} interval", _random_interval(group, rng), True))

    failures = [o for o in (_compare_routes(*case) for case in cases) if o is not None]
    known = sum(1 for _, _, k in cases if k)
    notes = (
        f"{len(cases) - known} random subsets and {known} Bruhat intervals"
        " compared across both routes",
    )
    return SuiteResult(
        "gs-rank4", len(cases), tuple(failures[:MAX_REPORTED_FAILURES]), notes
    )


def suite_two_element_s4(count: int | None = None, seed: int = 0) -> SuiteResult:
    """On every pair from the rank-4 symmetric group the three two-element
    properties agree, splitting 72 related / 204 unrelated."""
    s4 = _s(4)
    pairs = list(itertools.combinations(elements(s4), 2))

    def run_one(pair: tuple[SignedPermutation, SignedPermutation]) -> tuple[bool, str | None]:
        rep = two_element_analysis(*pair)
        if not rep.agree:
            return rep.reflection_route, (
                f"{list(pair[0].window)} vs {list(pair[1].window)}: routes"
                f" ({rep.closest_route}, {rep.matroid_route}, {rep.reflection_route})"
            )
        return rep.reflection_route, None

    outcomes = [run_one(pair) for pair in pairs]
    failures = [msg for _, msg in outcomes if msg is not None]
    related = sum(1 for flag, _ in outcomes if flag)
    checks = len(pairs) + 1
    if (related, len(pairs) - related) != (72, 204):
        failures.append(
            f"split {related}/{len(pairs) - related}, expected 72/204"
        )
    notes = (f"{related} pairs differ by a reflection, {len(pairs) - related} do not",)
    return SuiteResult(
        "two-element-s4", checks, tuple(failures[:MAX_REPORTED_FAILURES]), notes
    )


def suite_fano(count: int | None = None, seed: int = 0) -> SuiteResult:
    """On the 4032-element subset avoiding the seven lines of the order-2
    projective plane, the order route, which reads each unique extremum
    off the prefix sets of M without the greedy route, agrees with the
    greedy route at every one of the 5040 base elements: the two tables
    are compared entry by entry, or, with `count`, per-u retractions at a
    sample of base elements."""
    M = fano_matroid_s7()
    checks = 1
    failures: list[str] = []
    if len(M) != 4032:
        failures.append(f"subset has {len(M)} elements, expected 4032")
    us = list(elements(M.group))
    if count is None:
        order = retraction_table(M, method="matroid").as_dict
        greedy = retraction_table(M, method="algebraic").as_dict
        pairs = ((u, order[u.window], greedy[u.window]) for u in us)
    else:
        us = random.Random(seed + 5).sample(us, min(count, len(us)))
        pairs = ((u, matroid_retract(M, u), algebraic_retract(M, u)) for u in us)
    failures.extend(
        f"u={list(u.window)}: {list(got.window)} vs {list(want.window)}"
        for u, got, want in pairs
        if got.window != want.window
    )
    checks += len(us)
    return SuiteResult(
        "fano", checks, tuple(failures[:MAX_REPORTED_FAILURES]),
        (f"{len(us)} base elements checked against the greedy route",),
    )


def suite_fan_figures(count: int | None = None, seed: int = 0) -> SuiteResult:
    """Fans of the two demo tables: strong convexity, member fibers, the
    common lineality line of the second, and query behavior on and off
    merged walls; a deliberately inconsistent table must be rejected."""
    checks = 0
    failures: list[str] = []

    def check(cond: bool, msg: str) -> None:
        nonlocal checks
        checks += 1
        if not cond:
            failures.append(msg)

    fan1 = build_fan(retraction_table(fixed_points(RationalMatrix(DEMO_MATRIX_1))))
    check(fan1.strongly_convex, "demo-1 fan is not strongly convex")
    check(fan1.lineality == (), f"demo-1 lineality {fan1.lineality}")
    cone = fan1.cone_for(_s(3).element((2, 1, 3)))
    got_members = sorted(u.window for u in cone.members)
    check(
        got_members == [(2, 1, 3), (2, 3, 1)],
        f"demo-1 fiber of (2,1,3) is {got_members}",
    )
    res = query(fan1, (1, -2, 1))
    check(
        res.target.window == (2, 1, 3) and res.grade is Membership.INTERIOR,
        f"demo-1 query (1,-2,1): {list(res.target.window)} {res.grade.value}",
    )
    try:
        query(fan1, (0, 0, 0))
        check(False, "origin query did not raise")
    except AmbiguousBoundary:
        check(True, "")

    fan2 = build_fan(retraction_table(fixed_points(RationalMatrix(DEMO_MATRIX_2))))
    check(not fan2.strongly_convex, "demo-2 fan claims strong convexity")
    check(fan2.lineality == ((1, -2, 1),), f"demo-2 lineality {fan2.lineality}")
    fiber1 = sorted(u.window for u in fan2.cone_for(_s(3).element((1, 2, 3))).members)
    check(
        fiber1 == [(1, 2, 3), (1, 3, 2), (2, 1, 3)],
        f"demo-2 fiber of identity is {fiber1}",
    )
    try:
        query(fan2, (1, -2, 1))
        check(False, "wall query did not raise")
    except AmbiguousBoundary:
        check(True, "")

    s3 = _s(3)
    junk_targets = (s3.element((1, 2, 3)), s3.element((3, 2, 1)))
    junk_images = [
        junk_targets[0] if u.window in ((1, 2, 3), (2, 3, 1)) else junk_targets[1]
        for u in elements(s3)
    ]
    junk = RetractionTable(s3, junk_targets, junk_images, provenance="hand-built")
    try:
        build_fan(junk)
        check(False, "inconsistent table was accepted")
    except InconsistentLineality:
        check(True, "")
    return SuiteResult("fan-figures", checks, tuple(failures[:MAX_REPORTED_FAILURES]))


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "table1": suite_table1,
    "closest-unique": suite_closest_unique,
    "thmB-random": suite_thmb_random,
    "matroid-equiv": suite_matroid_equiv,
    "gs-s3-exhaustive": suite_gs_s3_exhaustive,
    "gs-rank4": suite_gs_rank4,
    "two-element-s4": suite_two_element_s4,
    "fano": suite_fano,
    "fan-figures": suite_fan_figures,
}


def run_suite(name: str, count: int | None = None, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; know {sorted(SUITES)}")
    return SUITES[name](count=count, seed=seed)
