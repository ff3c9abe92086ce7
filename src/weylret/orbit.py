"""Exact limit oracle on torus orbit closures of complete flags.

Type A only.  An invertible rational matrix x determines a complete flag
(spanned by its leading column blocks); for each size k the support is the
set of row subsets J with a nonzero k-by-k minor on rows J, columns 1..k.
The fixed points of the torus action on the orbit closure are the
permutations all of whose prefix sets lie in the support, and the limit of
the orbit under the one-parameter subgroup with weight lam picks, at each
size, the support set of least lam-sum.  For lam interior to a chamber the
minimizers are unique and nested, so they spell out a window; ties raise
`TieDetected` instead of guessing.

Everything is exact: minors via fraction-free elimination, weights as
integers built from a base large enough to keep all equal-size subset sums
distinct.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import GiveUp, PreconditionError, SingularMatrix, TieDetected
from .exact import Rat, RationalMatrix
from .retraction import RetractionTable, SubsetM
from .weyl import GroupDescriptor, SignedPermutation, WeylType, elements


def _type_a_group(n: int) -> GroupDescriptor:
    return GroupDescriptor.simple(WeylType.A, n)


@dataclass(frozen=True)
class PluckerSupport:
    """Per size k (1-based), the sorted row subsets with nonzero minor."""

    n: int
    sets: tuple[tuple[tuple[int, ...], ...], ...]

    def at(self, k: int) -> tuple[tuple[int, ...], ...]:
        return self.sets[k - 1]

    def to_json(self) -> dict:
        return {"n": self.n, "sets": [[list(J) for J in level] for level in self.sets]}


def plucker_support(x: RationalMatrix) -> PluckerSupport:
    n = x.nrows
    if x.ncols != n:
        raise PreconditionError(f"need a square matrix, got {x.nrows}x{x.ncols}")
    if x.det() == 0:
        raise SingularMatrix("matrix is singular")
    levels = []
    for k in range(1, n + 1):
        cols = list(range(1, k + 1))
        level = [
            J
            for J in itertools.combinations(range(1, n + 1), k)
            if x.minor(J, cols) != 0
        ]
        levels.append(tuple(level))
    return PluckerSupport(n, tuple(levels))


def fixed_points(support: PluckerSupport | RationalMatrix) -> SubsetM:
    """Permutations whose prefix sets all lie in the support."""
    if isinstance(support, RationalMatrix):
        support = plucker_support(support)
    group = _type_a_group(support.n)
    levels = [set(level) for level in support.sets]
    keep = []
    for w in elements(group):
        if all(
            tuple(sorted(w.window[:k])) in levels[k - 1]
            for k in range(1, support.n + 1)
        ):
            keep.append(w)
    return SubsetM(group, tuple(keep))


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
    window: list[int] = []
    prev: tuple[int, ...] = ()
    for k in range(1, n + 1):
        level = support.at(k)
        sums = [sum(lam[j - 1] for j in J) for J in level]
        best = min(sums)
        winners = [J for J, s in zip(level, sums) if s == best]
        if len(winners) > 1:
            raise TieDetected(
                f"least weight {best} at size {k} reached by {len(winners)} sets"
            )
        J = winners[0]
        if any(j not in J for j in prev):
            raise ValueError(
                f"minimizers are not nested at size {k}; not a flag support"
            )
        added = next(j for j in J if j not in prev)
        window.append(added)
        prev = J
    return _type_a_group(n).element(window)


def weight_for_chamber(u: SignedPermutation) -> tuple[int, ...]:
    """An integer weight interior to the chamber of u whose equal-size
    subset sums are pairwise distinct, so limits taken at it never tie."""
    if len(u.group.factors) != 1 or u.group.factors[0].type is not WeylType.A:
        raise ValueError("weights are built for a single type A factor")
    n = u.group.window_length
    base = n * math.comb(n, n // 2) + 1
    shift = sum(base**k for k in range(1, n + 1))
    lam = [0] * n
    for j, letter in enumerate(u.window, start=1):
        lam[letter - 1] = n * base**j - shift
    return tuple(lam)


def geometric_table(x: PluckerSupport | RationalMatrix) -> RetractionTable:
    """Tabulate the limit fixed point over every chamber."""
    if isinstance(x, RationalMatrix):
        x = plucker_support(x)
    group = _type_a_group(x.n)
    targets = fixed_points(x)
    mapping = tuple(
        (u, limit_point(x, weight_for_chamber(u))) for u in elements(group)
    )
    return RetractionTable(
        group, tuple(targets.elements), mapping, provenance="geometric-limit"
    )


def sample_rational_point(
    n: int,
    seed: int,
    kind: str = "generic",
    density: Fraction | float = Fraction(1, 2),
    interval: tuple[SignedPermutation, SignedPermutation] | None = None,
    max_tries: int = 1000,
) -> RationalMatrix:
    """Seeded random invertible rational matrices.

    kind "generic": every entry a small random rational; "sparse": entries
    zeroed with probability 1 - density to force degenerate supports;
    "interval": resample until the fixed-point set equals the Bruhat
    interval given by `interval`, raising `GiveUp` after `max_tries`.
    """
    rng = random.Random(seed)
    if n < 1:
        raise PreconditionError(f"matrix size must be at least 1, got {n}")
    if kind not in ("generic", "sparse", "interval"):
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "interval":
        if interval is None:
            raise ValueError("kind 'interval' needs the target interval")
        from .matroid import bruhat_interval

        lo, hi = interval
        want = {w.window for w in bruhat_interval(lo, hi)}

    def entry() -> Fraction:
        if kind == "sparse" and rng.random() > float(density):
            return Fraction(0)
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    for _ in range(max_tries):
        mat = RationalMatrix(
            tuple(tuple(entry() for _ in range(n)) for _ in range(n))
        )
        if mat.det() == 0:
            continue
        if kind == "interval":
            got = {w.window for w in fixed_points(mat)}
            if got != want:
                continue
        return mat
    raise GiveUp(f"no suitable matrix in {max_tries} draws (kind={kind!r}, n={n})")
