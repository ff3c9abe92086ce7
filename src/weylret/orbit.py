"""Exact limit oracle on torus orbit closures of complete flags.

Type A only.  An invertible rational matrix x determines a complete flag
(spanned by its leading column blocks); for each size k the support is the
set of row subsets J with a nonzero k-by-k minor on rows J, columns 1..k.
The fixed points of the torus action on the orbit closure are the
permutations all of whose prefix sets lie in the support, and the limit of
the orbit under the one-parameter subgroup with weight lam picks, at each
size, the support set of least lam-sum.  For lam interior to a chamber the
minimizers are unique and nested, so they spell out a window; ties raise
`TieDetected` instead of guessing.  Each support set is kept as a bitmask
of its rows, and a limit first lists the lam-sums of all 2^n row subsets,
doubling the list once per row, so each set's sum is one lookup.

Everything is exact.  Each row is first cleared of denominators, a
positive scaling that changes no minor's vanishing; the minors on rows J
and columns 1..k then come level by level, in integers, by Laplace
expansion along column k of the minors of level k - 1.  Weights are
integers built from a base large enough to keep all equal-size subset
sums distinct.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

from .errors import GiveUp, PreconditionError, SingularMatrix, TieDetected
from .exact import Rat, RationalMatrix, clear_denominators
from .retraction import RetractionTable, SubsetM
from .weyl import GroupDescriptor, SignedPermutation, WeylType, act_on_vector, elements


@lru_cache(maxsize=16)
def _type_a_group(n: int) -> GroupDescriptor:
    return GroupDescriptor.simple(WeylType.A, n)


@dataclass(frozen=True)
class PluckerSupport:
    """Per size k (1-based), the sorted row subsets with nonzero minor.

    Checked once here: n levels, each set at level k an increasing k-tuple
    of rows in 1..n, so that nested minimizers spell a permutation."""

    n: int
    sets: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if len(self.sets) != self.n:
            raise PreconditionError(f"support of size {self.n} has {len(self.sets)} levels")
        for k, level in enumerate(self.sets, start=1):
            for J in level:
                if len(J) != k or list(J) != sorted(set(J)) or not 1 <= J[0] <= J[-1] <= self.n:
                    raise PreconditionError(
                        f"bad set {J!r} at size {k} of a support of size {self.n}"
                    )

    def at(self, k: int) -> tuple[tuple[int, ...], ...]:
        return self.sets[k - 1]

    @cached_property
    def masks(self) -> tuple[tuple[int, ...], ...]:
        """Per level, each set as a bitmask with bit j - 1 for row j."""
        return tuple(tuple(sum(1 << (j - 1) for j in J) for J in level) for level in self.sets)

    def to_json(self) -> dict:
        return {"n": self.n, "sets": [[list(J) for J in level] for level in self.sets]}


def plucker_support(x: RationalMatrix) -> PluckerSupport:
    """The support of x, level by level; a singular x raises
    `SingularMatrix`.

    Row j is scaled by the lcm of its denominators, which scales every
    minor on rows J by a positive number.  The minor on rows
    J = (j_1 < ... < j_k) and columns 1..k, expanded along column k, is
    the sum over p of (-1)^(p+k) x[j_p][k] times the minor on J - {j_p}
    and columns 1..k-1, so each level comes from the one before in
    integers.  x is singular exactly when the one level-n minor is 0."""
    n = x.nrows
    if x.ncols != n:
        raise PreconditionError(f"need a square matrix, got {x.nrows}x{x.ncols}")
    rows = [clear_denominators(row) for row in x.rows]
    minors: dict[tuple[int, ...], int] = {(): 1}
    levels = []
    for k in range(1, n + 1):
        column = [row[k - 1] for row in rows]
        below, minors = minors, {}
        for J in itertools.combinations(range(n), k):
            total = 0
            for p, j in enumerate(J):  # p counts from 0 here
                if column[j]:
                    term = column[j] * below[J[:p] + J[p + 1 :]]
                    total += term if (p + k) % 2 else -term
            minors[J] = total
        levels.append(tuple(tuple(j + 1 for j in J) for J, d in minors.items() if d))
    if not minors[tuple(range(n))]:
        raise SingularMatrix("matrix is singular")
    return PluckerSupport(n, tuple(levels))


def fixed_points(support: PluckerSupport | RationalMatrix) -> SubsetM:
    """Permutations whose prefix sets all lie in the support, built one
    letter at a time: a window of length k - 1 whose prefix sets all lie in
    the support is extended by each letter a that makes its set plus a a
    support set of size k.  Each window carries its set as a bitmask, as
    in `PluckerSupport.masks`; a letter already in the set leaves the
    mask at size k - 1, so it is never allowed."""
    if isinstance(support, RationalMatrix):
        support = plucker_support(support)
    n = support.n
    letters = [(a, 1 << (a - 1)) for a in range(1, n + 1)]
    windows: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for level in support.masks:
        allowed = set(level)
        windows = [
            (w + (a,), J | bit)
            for w, J in windows
            for a, bit in letters
            if J | bit in allowed
        ]
    group = _type_a_group(n)
    return SubsetM(group, tuple(SignedPermutation._unchecked(group, w) for w, _ in windows))


def limit_point(
    support: PluckerSupport | RationalMatrix, lam: Sequence[Rat]
) -> SignedPermutation:
    """Window of the limit fixed point for a one-parameter weight lam.

    Precondition: lam lies in the open chamber it is meant to represent;
    a tied minimum raises `TieDetected` rather than resolving arbitrarily.
    """
    if isinstance(support, RationalMatrix):
        support = plucker_support(support)
    n = support.n
    if len(lam) != n:
        raise ValueError(f"weight length {len(lam)} != {n}")
    # sums[J] is the lam-sum of the rows in the bitmask J: the sums of the
    # subsets of rows 1..j, doubled by adding lam_{j+1} to each
    sums = [0]
    for w in lam:
        sums += [t + w for t in sums]
    window: list[int] = []
    prev = 0
    for k, level in enumerate(support.masks, start=1):
        weights = [sums[J] for J in level]
        best = min(weights)
        ties = weights.count(best)
        if ties > 1:
            raise TieDetected(f"least weight {best} at size {k} reached by {ties} sets")
        J = level[weights.index(best)]
        # J has one row more than prev, so it nests iff it holds prev
        if J & prev != prev:
            raise ValueError(
                f"minimizers are not nested at size {k}; not a flag support"
            )
        window.append((J ^ prev).bit_length())
        prev = J
    # nested minimizers of sizes 1..n add each of 1..n once: a permutation
    return SignedPermutation._unchecked(_type_a_group(n), tuple(window))


@lru_cache(maxsize=16)
def _position_weights(n: int) -> tuple[int, ...]:
    """The weight `weight_for_chamber` gives the letter at each window
    position 1..n: n base^j minus the sum of base^1..base^n, with base
    above n times the largest binomial coefficient of n."""
    base = n * math.comb(n, n // 2) + 1
    shift = sum(base**k for k in range(1, n + 1))
    return tuple(n * base**j - shift for j in range(1, n + 1))


def weight_for_chamber(u: SignedPermutation) -> tuple[int, ...]:
    """An integer weight interior to the chamber of u whose equal-size
    subset sums are pairwise distinct, so limits taken at it never tie."""
    if len(u.group.factors) != 1 or u.group.factors[0].type is not WeylType.A:
        raise ValueError("weights are built for a single type A factor")
    return act_on_vector(u, _position_weights(u.group.window_length))


def geometric_table(x: PluckerSupport | RationalMatrix) -> RetractionTable:
    """Tabulate the limit fixed point over every chamber."""
    if isinstance(x, RationalMatrix):
        x = plucker_support(x)
    group = _type_a_group(x.n)
    images = [limit_point(x, weight_for_chamber(u)) for u in elements(group)]
    return RetractionTable(group, fixed_points(x).elements, images, provenance="geometric-limit")


def sample_rational_point(
    n: int,
    seed: int,
    kind: str = "generic",
    density: Fraction | float = Fraction(1, 2),
    max_tries: int = 1000,
) -> RationalMatrix:
    """Seeded random invertible rational matrices, raising `GiveUp` after
    `max_tries` singular draws.

    kind "generic": every entry a small random rational; "sparse": entries
    zeroed with probability 1 - density to force degenerate supports.
    """
    rng = random.Random(seed)
    if n < 1:
        raise PreconditionError(f"matrix size must be at least 1, got {n}")
    if not 0 <= density <= 1:
        raise PreconditionError(f"density must lie in [0, 1], got {density}")
    if kind not in ("generic", "sparse"):
        raise ValueError(f"unknown kind {kind!r}")

    def entry() -> Fraction:
        if kind == "sparse" and rng.random() > float(density):
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    for _ in range(max_tries):
        mat = RationalMatrix(
            tuple(tuple(entry() for _ in range(n)) for _ in range(n))
        )
        if mat.det() != 0:
            return mat
    raise GiveUp(f"no suitable matrix in {max_tries} draws (kind={kind!r}, n={n})")
