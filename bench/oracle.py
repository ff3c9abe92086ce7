"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports weylret.  Elements are plain window tuples in the
package's notation: w = (w(1), ..., w(n)), a negative entry -k standing for
the barred letter, with the package's simple reflections (adjacent
transpositions, then the sign change on the last coordinate for BC or the
double sign change on the last two coordinates for D).

* type A distance: the inversion count of u^-1 v;
* Bruhat order on A: the tableau criterion (sorted prefixes);
* Bruhat order on B_n: the restriction of the order on the permutations of
  [+-n] (Bjorner and Brenti, Combinatorics of Coxeter Groups, GTM 231,
  Cor. 8.1.9), after conjugating by the reversal so that the sign change
  sits on the first coordinate as in that book;
* Bruhat order on D_n (and, for tests, on any type): the transitive closure
  of covering relations w -> wt found by breadth-first search;
* leading minors: exact Fraction elimination without row exchanges.

These run only outside the timed region.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

Window = tuple[int, ...]


# --- Group arithmetic on windows -------------------------------------------

def compose(v: Window, w: Window) -> Window:
    """(v w)(i) = v(w(i)) with v(-i) = -v(i)."""
    return tuple(v[k - 1] if k > 0 else -v[-k - 1] for k in w)


def inverse(w: Window) -> Window:
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[abs(v) - 1] = i if v > 0 else -i
    return tuple(out)


def group_windows(typ: str, n: int) -> list[Window]:
    """All windows of the rank-n factor of type A, BC or D (any order)."""
    out = []
    for perm in itertools.permutations(range(1, n + 1)):
        if typ == "A":
            out.append(perm)
            continue
        for signs in itertools.product((1, -1), repeat=n):
            if typ == "D" and signs.count(-1) % 2:
                continue
            out.append(tuple(s * p for s, p in zip(signs, perm)))
    return out


def simple_reflections(typ: str, n: int) -> list[Window]:
    ident = list(range(1, n + 1))
    out = []
    for i in range(n - 1):
        w = ident[:]
        w[i], w[i + 1] = w[i + 1], w[i]
        out.append(tuple(w))
    if typ == "BC":
        w = ident[:]
        w[-1] = -w[-1]
        out.append(tuple(w))
    elif typ == "D":
        w = ident[:]
        w[-2], w[-1] = -w[-1], -w[-2]
        out.append(tuple(w))
    return out


def reflections(typ: str, n: int) -> list[Window]:
    """One reflection per positive root."""
    ident = list(range(1, n + 1))
    out = []
    for i, j in itertools.combinations(range(n), 2):
        w = ident[:]
        w[i], w[j] = j + 1, i + 1
        out.append(tuple(w))
        if typ != "A":
            w = ident[:]
            w[i], w[j] = -(j + 1), -(i + 1)
            out.append(tuple(w))
    if typ == "BC":
        for i in range(n):
            w = ident[:]
            w[i] = -w[i]
            out.append(tuple(w))
    return out


def roots(typ: str, n: int) -> list[tuple[int, ...]]:
    """All roots (both signs) as integer vectors."""
    out = []
    for i, j in itertools.combinations(range(n), 2):
        for si, sj in ((1, -1), (-1, 1)) + (((1, 1), (-1, -1)) if typ != "A" else ()):
            v = [0] * n
            v[i], v[j] = si, sj
            out.append(tuple(v))
    if typ == "BC":
        for i in range(n):
            for s in (2, -2):
                v = [0] * n
                v[i] = s
                out.append(tuple(v))
    return out


def act(w: Window, nu: Sequence) -> tuple:
    """e_i -> e_{w(i)} with e_{ibar} = -e_i."""
    out = [0] * len(nu)
    for i, v in enumerate(w):
        out[abs(v) - 1] = nu[i] if v > 0 else -nu[i]
    return tuple(out)


def parallel(d: Sequence, beta: Sequence) -> bool:
    return all(d[i] * beta[j] == d[j] * beta[i] for i, j in itertools.combinations(range(len(d)), 2))


# --- Type A distance and order ----------------------------------------------

def inversions(w: Window) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def type_a_distance(u: Window, v: Window) -> int:
    """Word-metric distance in S_n: the inversion count of u^-1 v."""
    return inversions(compose(inverse(u), v))


def a_leq(v: Sequence[int], w: Sequence[int]) -> bool:
    """Tableau criterion: the increasing rearrangement of each prefix of v is
    entrywise at most that of w."""
    for k in range(1, len(v)):
        if any(a > b for a, b in zip(sorted(v[:k]), sorted(w[:k]))):
            return False
    return True


# --- Type B/C order through permutations of [+-n] ---------------------------

def _to_book(w: Window) -> Window:
    # conjugate by the reversal r(i) = n+1-i, which carries the package's
    # generators (sign change on the last coordinate) to the book's (sign
    # change on the first); conjugation by a diagram automorphism keeps
    # the Bruhat order
    n = len(w)
    r = tuple(range(n, 0, -1))
    return compose(compose(r, w), r)


def _signed_full(w: Window) -> tuple[int, ...]:
    # w as a permutation of -n < ... < -1 < 1 < ... < n, relabelled 1..2n
    n = len(w)
    label = {v: i for i, v in enumerate(list(range(-n, 0)) + list(range(1, n + 1)), start=1)}
    return tuple(label[-w[-i - 1]] for i in range(n)) + tuple(label[v] for v in w)


def bc_leq(v: Window, w: Window) -> bool:
    """Bruhat order on B_n as the restriction of the order on S([+-n])."""
    return a_leq(_signed_full(_to_book(v)), _signed_full(_to_book(w)))


# --- Any type: covering closure by breadth-first search ---------------------

def bfs_lengths(typ: str, n: int) -> dict[Window, int]:
    gens = simple_reflections(typ, n)
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                ws = compose(w, s)
                if ws not in dist:
                    dist[ws] = dist[w] + 1
                    nxt.append(ws)
        frontier = nxt
    return dist


def covering_closure(typ: str, n: int) -> dict[Window, frozenset[Window]]:
    """Lower sets of the Bruhat order: covers w -> wt for reflections t with
    the word length dropping by one, closed transitively in order of
    increasing length."""
    lengths = bfs_lengths(typ, n)
    refl = reflections(typ, n)
    lower: dict[Window, frozenset[Window]] = {}
    for w in sorted(lengths, key=lengths.__getitem__):
        acc = {w}
        for t in refl:
            wt = compose(w, t)
            if lengths[wt] == lengths[w] - 1:
                acc |= lower[wt]
        lower[w] = frozenset(acc)
    return lower


class Order:
    """The oracle Bruhat order on one irreducible factor."""

    def __init__(self, typ: str, n: int):
        self.typ, self.n = typ, n
        self._closure = covering_closure(typ, n) if typ == "D" else None

    def leq(self, v: Window, w: Window) -> bool:
        if self.typ == "A":
            return a_leq(v, w)
        if self.typ == "BC":
            return bc_leq(v, w)
        return v in self._closure[w]

    def extremal(self, M: Iterable[Window], u: Window, side: str) -> set[Window]:
        """Members v whose translate u^-1 v is minimal (side "min") or
        maximal ("max") in u^-1 M."""
        iu = inverse(u)
        tr = [(compose(iu, v), v) for v in M]
        out = set()
        for tv, v in tr:
            beaten = any(
                tw != tv and (self.leq(tw, tv) if side == "min" else self.leq(tv, tw))
                for tw, _ in tr
            )
            if not beaten:
                out.add(v)
        return out


# --- Leading minors -----------------------------------------------------------

def leading_minors(rows: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """The leading principal minors of a square matrix by Gaussian
    elimination without row exchanges; the list stops after the first zero
    minor, since elimination cannot continue past it."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    out = []
    det = Fraction(1)
    for k in range(n):
        piv = m[k][k]
        det *= piv
        out.append(det)
        if piv == 0:
            break
        for i in range(k + 1, n):
            f = m[i][k] / piv
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return out


def has_nonzero_leading_minors(rows: Sequence[Sequence[Fraction]], w: Window) -> bool:
    """Whether the minors on rows w(1..k), columns 1..k are all nonzero."""
    minors = leading_minors([rows[v - 1] for v in w])
    return len(minors) == len(w) and all(minors)


def fixed_point_windows(rows: Sequence[Sequence[Fraction]]) -> set[Window]:
    """Permutations whose prefix minors are all nonzero: one determinant
    per row subset, then a walk over the prefixes."""
    n = len(rows)
    support = {
        J
        for k in range(1, n + 1)
        for J in itertools.combinations(range(1, n + 1), k)
        if determinant([[rows[j - 1][c] for c in range(k)] for j in J]) != 0
    }
    return {
        w for w in itertools.permutations(range(1, n + 1))
        if all(tuple(sorted(w[:k])) in support for k in range(1, n + 1))
    }


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant by elimination with row exchanges."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p] = m[p], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return det
