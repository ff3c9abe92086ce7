"""The benchmark's oracles against brute force on small groups.

Run with `python3 -m pytest bench/test_oracle.py -q`.  Brute force here is
the subword property (v <= w iff some subword of a reduced word of w
multiplies to v), breadth-first word length, and sympy determinants.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402

SMALL = [("A", 3), ("A", 4), ("BC", 2), ("BC", 3), ("D", 3), ("D", 4)]


def _reduced_word(typ: str, n: int, w, lengths) -> list:
    gens = oracle.simple_reflections(typ, n)
    word = []
    while lengths[w]:
        s = next(s for s in gens if lengths[oracle.compose(w, s)] < lengths[w])
        word.append(s)
        w = oracle.compose(w, s)
    return word[::-1]


def _subword_lower_set(typ: str, n: int, w, lengths) -> set:
    ident = tuple(range(1, n + 1))
    out = {ident}
    for s in _reduced_word(typ, n, w, lengths):
        out |= {oracle.compose(x, s) for x in out}
    return out


@pytest.mark.parametrize("typ,n", SMALL)
def test_orders_match_subword_property(typ, n):
    lengths = oracle.bfs_lengths(typ, n)
    elems = oracle.group_windows(typ, n)
    assert len(lengths) == len(elems)
    order = oracle.Order(typ, n)
    closure = oracle.covering_closure(typ, n)
    rng = random.Random(7)
    ws = elems if len(elems) <= 48 else rng.sample(elems, 40)
    for w in ws:
        lower = _subword_lower_set(typ, n, w, lengths)
        assert closure[w] == lower
        for v in elems:
            assert order.leq(v, w) == (v in lower), (v, w)


def test_type_a_distance_is_word_length():
    lengths = oracle.bfs_lengths("A", 4)
    elems = oracle.group_windows("A", 4)
    for u, v in itertools.product(elems, repeat=2):
        assert oracle.type_a_distance(u, v) == lengths[oracle.compose(oracle.inverse(u), v)]


def test_group_sizes_and_roots():
    for typ, n, size, nroots in (("A", 4, 24, 12), ("BC", 3, 48, 18), ("D", 4, 192, 24)):
        assert len(set(oracle.group_windows(typ, n))) == size
        assert len(set(oracle.roots(typ, n))) == nroots
        assert len(oracle.reflections(typ, n)) == nroots // 2


def test_extremal_sets_of_the_whole_group():
    order = oracle.Order("BC", 2)
    ident, top = (1, 2), (-1, -2)
    assert order.extremal(oracle.group_windows("BC", 2), ident, "min") == {ident}
    assert order.extremal(oracle.group_windows("BC", 2), ident, "max") == {top}


def _random_matrix(rng, n, sparse):
    return [
        [Fraction(0) if sparse and rng.random() < 0.5 else Fraction(rng.randint(-3, 3), rng.randint(1, 2))
         for _ in range(n)]
        for _ in range(n)
    ]


def test_minors_and_determinant_match_sympy():
    rng = random.Random(11)
    for trial in range(40):
        n = 3 + trial % 3
        rows = _random_matrix(rng, n, sparse=trial % 2 == 1)
        sym = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r] for r in rows])
        assert oracle.determinant(rows) == Fraction(str(sym.det()))
        for w in itertools.permutations(range(1, n + 1)):
            want = all(
                sym.extract([v - 1 for v in w[:k]], list(range(k))).det() != 0
                for k in range(1, n + 1)
            )
            assert oracle.has_nonzero_leading_minors(rows, w) == want
