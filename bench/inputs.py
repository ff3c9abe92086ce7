"""The seeded inputs of the four workloads, as plain JSON data.

`run.py` makes them once per run, before any round starts, and writes them
to `.bench_out/inputs-<workload>-<seed>.json`; every round reads that file
and builds weylret objects from it inside `setup_s` (`workloads.py`).  So
the draws below, which call the oracles many times and vary in number from
seed to seed, are never timed.  Nothing here imports weylret.

Inputs come from `random.Random(seed)` and the oracles.  The cost of the
operations grows steeply with the size of a subset, so each workload fixes
the sizes of its inputs and draws only their content from the seed; the
cost of a round then varies little from seed to seed.  Fractions are
written as strings and group elements as window lists.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import oracle

MAX_DRAWS = 60
MAX_INTERVAL_DRAWS = 2000


def _random_matrix(rng: random.Random, n: int, kind: str) -> tuple[tuple[Fraction, ...], ...]:
    """Seeded invertible rational matrix; "sparse" zeroes each entry with
    probability 1/2, which makes the fixed-point sets smaller and uneven."""
    while True:
        rows = tuple(
            tuple(
                Fraction(0)
                if kind == "sparse" and rng.random() < 0.5
                else Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                for _ in range(n)
            )
            for _ in range(n)
        )
        if oracle.determinant(rows) != 0:
            return rows


def _strs(values) -> list[str]:
    return [str(v) for v in values]


def _matrix_with_fixed(rng: random.Random, n: int, kind: str, size: int):
    """A random matrix of the given kind whose fixed-point set has `size`
    members, or the last draw after MAX_DRAWS draws; with that set, sorted."""
    for _ in range(MAX_DRAWS):
        rows = _random_matrix(rng, n, kind)
        fixed = oracle.fixed_point_windows(rows)
        if len(fixed) == size:
            break
    return [_strs(row) for row in rows], [list(w) for w in sorted(fixed)]


def _intervals(rng: random.Random, typ: str, n: int, sizes) -> list[list[list[int]]]:
    """One random Bruhat interval [lo, hi] of each size, or of the nearest
    size seen when none turns up in MAX_INTERVAL_DRAWS draws."""
    W = oracle.group_windows(typ, n)
    lower = oracle.covering_closure(typ, n)
    out = []
    for size in sizes:
        best = None
        for _ in range(MAX_INTERVAL_DRAWS):
            hi = rng.choice(W)
            below = sorted(lower[hi])
            lo = rng.choice(below)
            iv = [x for x in below if lo in lower[x]]
            if best is None or abs(len(iv) - size) < abs(len(best) - size):
                best = iv
            if len(iv) == size:
                break
        out.append([list(w) for w in best])
    return out


# --- tables --------------------------------------------------------------------

# A round takes one matrix of each (size, kind, number of fixed points)
# below: its entries are drawn from the seed until the fixed-point set has
# that many members.  Generic matrices have nearly all of S_n as fixed
# points; sparse ones from 1 to about 64.  The cost of every operation grows
# with |M|, the order table's quadratically below the greedy-first threshold
# of 64 members, so fixing the sizes keeps the cost of a round nearly the
# same from seed to seed.
TABLES_MATRICES = (
    (5, "generic", 120), (4, "generic", 24), (4, "generic", 24), (4, "generic", 24),
    (5, "sparse", 8), (5, "sparse", 12), (5, "sparse", 16), (5, "sparse", 24),
    (4, "sparse", 2), (4, "sparse", 4), (4, "sparse", 8), (4, "sparse", 12),
)
QUERIES_PER_MATRIX = 4


def tables(seed: int) -> dict:
    rng = random.Random(seed)
    cases = []
    for n, kind, size in TABLES_MATRICES:
        rows, fixed = _matrix_with_fixed(rng, n, kind, size)
        points = [_strs(Fraction(c, 3) for c in rng.sample(range(-40, 41), n))
                  for _ in range(QUERIES_PER_MATRIX)]
        cases.append({"n": n, "kind": kind, "rows": rows, "fixed": fixed, "points": points})
    return {"cases": cases}


# --- polytope --------------------------------------------------------------------

# random subsets per group, by size; sizes of at most 8 take the
# all-pairs LP cross-check, larger ones the hull plus LP on offending edges.
# The known matroids have fixed sizes too (their content is drawn from the
# seed), because the hull and the LP cost grow steeply with the size.
POLYTOPE_RANDOM = {
    ("A", 4): (4, 6, 8, 10),
    ("D", 3): (4, 6, 8, 10),
    ("BC", 2): (3, 5, 7),
    ("BC", 3): (9,),
}
POLYTOPE_INTERVALS = {("BC", 3): (4, 8, 12), ("D", 3): (4, 8, 12)}
POLYTOPE_MATRICES = (("generic", 24), ("sparse", 8))


def polytope(seed: int) -> dict:
    rng = random.Random(seed)
    cases = []

    def add(typ, n, windows, known):
        cases.append({"typ": typ, "n": n, "windows": [list(w) for w in windows], "known": known})

    s3 = oracle.group_windows("A", 3)
    for r in range(1, len(s3) + 1):
        for combo in itertools.combinations(s3, r):
            add("A", 3, combo, False)
    for (typ, n), sizes in POLYTOPE_RANDOM.items():
        W = oracle.group_windows(typ, n)
        for k in sizes:
            add(typ, n, rng.sample(W, k), False)
    for kind, size in POLYTOPE_MATRICES:
        add("A", 4, _matrix_with_fixed(rng, 4, kind, size)[1], True)
    for (typ, n), sizes in POLYTOPE_INTERVALS.items():
        for iv in _intervals(rng, typ, n, sizes):
            add(typ, n, iv, True)
    return {"cases": cases}


# --- signed ----------------------------------------------------------------------

# sizes of the Bruhat intervals per group, and of the random subsets that
# take the quadratic extremal scan
SIGNED_INTERVALS = {("BC", 4): (12, 20, 32), ("D", 4): (12, 16, 20), ("BC", 3): (8, 16)}
SIGNED_RANDOM = {("BC", 4): (3,), ("D", 4): (3, 4), ("BC", 3): (3, 4, 5)}


def signed(seed: int) -> dict:
    rng = random.Random(seed)
    cases = []
    for (typ, n), sizes in SIGNED_INTERVALS.items():
        for iv in _intervals(rng, typ, n, sizes):
            cases.append({"typ": typ, "n": n, "interval": True, "windows": iv})
        W = oracle.group_windows(typ, n)
        for k in SIGNED_RANDOM[(typ, n)]:
            cases.append({"typ": typ, "n": n, "interval": False,
                          "windows": [list(w) for w in rng.sample(W, k)]})
    return {"cases": cases}


# --- cli ----------------------------------------------------------------------

def cli(seed: int) -> dict:
    """The seeded arguments of the cli calls; `workloads.build_cli` turns
    them into argv, files and stdin."""
    rng = random.Random(seed)
    rows = _random_matrix(rng, 4, "generic")
    S4 = oracle.group_windows("A", 4)
    return {
        "rows": [_strs(row) for row in rows],
        "fixed": [list(w) for w in sorted(oracle.fixed_point_windows(rows))],
        "at": list(rng.choice(S4)),
        "weight": _strs(Fraction(c, 2) for c in rng.sample(range(-30, 31), 4)),
        "point": _strs(Fraction(c, 3) for c in rng.sample(range(-30, 31), 4)),
        "bc2": [list(w) for w in rng.sample(oracle.group_windows("BC", 2), 3)],
        "s3": [list(w) for w in rng.sample(oracle.group_windows("A", 3), 3)],
        "pair": [list(w) for w in rng.sample(S4, 2)],
        "sample_seed": rng.randrange(10**6),
    }


MAKERS = {"tables": tables, "polytope": polytope, "signed": signed, "cli": cli}
