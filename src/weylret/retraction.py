"""Retractions of a Weyl group onto a finite subset.

Three routes onto a subset M:

* greedy: build the image window letter by letter, always taking the
  candidate that comes earliest in the linear order the base element u
  induces on window letters, restricted to prefixes of M (per factor);
* order-theoretic: the unique Bruhat-minimum (or -maximum) of u^-1 M,
  multiplied back by u, with `NotAMatroidAt` when uniqueness fails;
* metric: the set of elements of M closest to u in the word metric.

The order-theoretic route optionally confirms a greedy candidate first,
which turns the quadratic minimal-set search into a linear dominance scan;
a failed confirmation falls back to the full search, never to an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import DescriptorMismatch, NotAMatroidAt, NotAProduct, ParseError
from .weyl import (
    GroupDescriptor,
    SignedPermutation,
    WeylType,
    bruhat_leq,
    compose,
    elements,
    factor_extended_window,
    inverse,
    length,
    order_key,
)

Trie = dict[int, "Trie"]


def _canonical_key(w: SignedPermutation) -> tuple[int, ...]:
    out = []
    for f, loc in zip(w.group.factors, w.local_windows()):
        out.extend(order_key(v, f.rank) for v in loc)
    return tuple(out)


@dataclass(frozen=True)
class SubsetM:
    """A nonempty subset of a Weyl group, canonically ordered."""

    group: GroupDescriptor
    elements: tuple[SignedPermutation, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("empty subset")
        for w in self.elements:
            if w.group != self.group:
                raise ValueError(f"element {list(w.window)} not in {self.group}")
        uniq = {w.window: w for w in self.elements}
        ordered = tuple(
            uniq[win] for win in sorted(uniq, key=lambda win: _canonical_key(uniq[win]))
        )
        object.__setattr__(self, "elements", ordered)

    @classmethod
    def from_windows(
        cls, group: GroupDescriptor, windows: Sequence[Sequence[int]]
    ) -> "SubsetM":
        return cls(group, tuple(group.element(w) for w in windows))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[SignedPermutation]:
        return iter(self.elements)

    def __contains__(self, w: SignedPermutation) -> bool:
        return any(w.window == v.window for v in self.elements)

    @cached_property
    def projections(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per factor, the sorted set of local windows occurring in M."""
        out = []
        for j, _ in enumerate(self.group.factors):
            out.append(tuple(sorted({w.local_windows()[j] for w in self.elements})))
        return tuple(out)

    @property
    def is_product(self) -> bool:
        return math.prod(map(len, self.projections)) == len(self.elements)

    @cached_property
    def tries(self) -> tuple[Trie, ...]:
        out = []
        for proj in self.projections:
            trie: Trie = {}
            for win in proj:
                node = trie
                for v in win:
                    node = node.setdefault(v, {})
            out.append(trie)
        return tuple(out)

    @cached_property
    def windows_array(self) -> np.ndarray:
        return np.array([w.window for w in self.elements], dtype=np.int64)

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "elements": [list(w.window) for w in self.elements],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SubsetM":
        try:
            group = GroupDescriptor.from_json(data["group"])
            return cls.from_windows(group, data["elements"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad subset payload: {exc}") from exc


def algebraic_retract(
    M: SubsetM, u: SignedPermutation, side: str = "min"
) -> SignedPermutation:
    """Greedy retraction: per factor, repeatedly take the earliest (side
    "min") or latest ("max") still-extendable letter in the order u induces
    on window letters.  Needs M to be a product across factors."""
    if u.group != M.group:
        raise ValueError("base element from a different group")
    if len(M.group.factors) > 1 and not M.is_product:
        sizes = tuple(map(len, M.projections))
        raise NotAProduct(
            f"|M| = {len(M)} but the factor projections have sizes {sizes}"
        )
    pick = min if side == "min" else max
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    win: list[int] = []
    for (off, f), trie, loc in zip(M.group.segments(), M.tries, u.local_windows()):
        pos = {v: i for i, v in enumerate(factor_extended_window(f, loc))}
        node = trie
        for _ in range(f.rank):
            v = pick(node, key=pos.__getitem__)
            win.append(v + off if v > 0 else v - off)
            node = node[v]
    return SignedPermutation(M.group, tuple(win))


def _all_type_a(group: GroupDescriptor) -> bool:
    return len(group.factors) == 1 and group.factors[0].type is WeylType.A


def _dominates_all_a(M: SubsetM, u: SignedPermutation, cand: SignedPermutation, side: str) -> bool:
    # vectorized sorted-prefix dominance of u^-1 cand against all of u^-1 M
    n = M.group.window_length
    pos = np.empty(n + 1, dtype=np.int64)
    pos[np.array(u.window)] = np.arange(1, n + 1)
    x = pos[np.array(cand.window)]
    X = pos[M.windows_array]
    for k in range(1, n):
        xp = np.sort(x[:k])
        P = np.sort(X[:, :k], axis=1)
        good = (P >= xp).all(axis=1) if side == "min" else (P <= xp).all(axis=1)
        if not good.all():
            return False
    return True


def _dominates_all(M: SubsetM, u: SignedPermutation, cand: SignedPermutation, side: str) -> bool:
    if _all_type_a(M.group):
        return _dominates_all_a(M, u, cand, side)
    iu = inverse(u)
    ic = compose(iu, cand)
    for v in M:
        iv = compose(iu, v)
        ok = bruhat_leq(ic, iv) if side == "min" else bruhat_leq(iv, ic)
        if not ok:
            return False
    return True


def _extremal_elements(
    M: SubsetM, u: SignedPermutation, side: str
) -> tuple[SignedPermutation, ...]:
    """Elements of M whose translate u^-1 v is Bruhat-minimal (or -maximal)
    within u^-1 M: the quadratic scan."""
    iu = inverse(u)
    translated = [(compose(iu, v), v) for v in M]
    out = []
    for tv, v in translated:
        beaten = False
        for tw, _ in translated:
            if tw.window == tv.window:
                continue
            lower = bruhat_leq(tw, tv) if side == "min" else bruhat_leq(tv, tw)
            if lower:
                beaten = True
                break
        if not beaten:
            out.append(v)
    return tuple(out)


def _extremal_set(
    M: SubsetM, u: SignedPermutation, side: str, greedy_first: bool
) -> tuple[SignedPermutation, ...]:
    """The extremal elements at u: the greedy candidate alone when direct
    dominance confirms it (product subsets only), else the quadratic scan."""
    if greedy_first and M.is_product:
        cand = algebraic_retract(M, u, side=side)
        if _dominates_all(M, u, cand, side):
            return (cand,)
    return _extremal_elements(M, u, side)


def matroid_retract(
    M: SubsetM,
    u: SignedPermutation,
    side: str = "min",
    greedy_first: bool | None = None,
) -> SignedPermutation:
    """The unique element of M whose translate u^-1 v is Bruhat-least
    (side "min") or -greatest ("max") in u^-1 M; raises `NotAMatroidAt`
    listing the extremal elements when there is no unique one."""
    if u.group != M.group:
        raise ValueError("base element from a different group")
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    if greedy_first is None:
        greedy_first = M.is_product and len(M) >= 64
    extremal = _extremal_set(M, u, side, greedy_first)
    if len(extremal) == 1:
        return extremal[0]
    raise NotAMatroidAt(u, extremal)


def closest_set(
    M: SubsetM, u: SignedPermutation
) -> tuple[tuple[SignedPermutation, ...], int]:
    """Elements of M at minimal word-metric distance from u, with the
    distance."""
    iu = inverse(u)
    dists = [(length(compose(iu, v)), v) for v in M]
    best = min(d for d, _ in dists)
    return tuple(v for d, v in dists if d == best), best


@dataclass(frozen=True)
class RetractionTable:
    """A total map W -> targets fixing every target pointwise."""

    group: GroupDescriptor
    targets: tuple[SignedPermutation, ...]
    mapping: tuple[tuple[SignedPermutation, SignedPermutation], ...]
    provenance: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "mapping",
            tuple(sorted(self.mapping, key=lambda p: _canonical_key(p[0]))),
        )
        object.__setattr__(
            self,
            "targets",
            tuple(sorted(self.targets, key=_canonical_key)),
        )
        target_windows = {t.window for t in self.targets}
        seen = set()
        for u, v in self.mapping:
            if u.window in seen:
                raise ValueError(f"duplicate base element {list(u.window)}")
            seen.add(u.window)
            if v.window not in target_windows:
                raise ValueError(f"image {list(v.window)} is not a target")
            if u.window in target_windows and u.window != v.window:
                raise ValueError(f"target {list(u.window)} not fixed")
        if len(self.mapping) != self.group.order():
            raise ValueError(
                f"table covers {len(self.mapping)} of {self.group.order()} elements"
            )

    @cached_property
    def as_dict(self) -> dict[tuple[int, ...], SignedPermutation]:
        return {u.window: v for u, v in self.mapping}

    def retract(self, u: SignedPermutation) -> SignedPermutation:
        if u.group != self.group:
            raise DescriptorMismatch(
                f"element {list(u.window)} of {u.group} is not in {self.group}"
            )
        return self.as_dict[u.window]

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "provenance": self.provenance,
            "targets": [list(t.window) for t in self.targets],
            "map": [[list(u.window), list(v.window)] for u, v in self.mapping],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RetractionTable":
        try:
            group = GroupDescriptor.from_json(data["group"])
            targets = tuple(group.element(w) for w in data["targets"])
            mapping = tuple(
                (group.element(u), group.element(v)) for u, v in data["map"]
            )
            return cls(group, targets, mapping, provenance=data.get("provenance", ""))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad table payload: {exc}") from exc


def retraction_table(
    M: SubsetM,
    method: str = "algebraic",
    greedy_first: bool | None = None,
) -> RetractionTable:
    """Tabulate a retraction over the whole group.  Only side "min" fixes
    M; side "max" at u is side "min" at u w0."""
    if method == "algebraic":
        fn = lambda u: algebraic_retract(M, u)
        provenance = "algebraic-greedy"
    elif method == "matroid":
        fn = lambda u: matroid_retract(M, u, greedy_first=greedy_first)
        provenance = "matroid-minimum"
    else:
        raise ValueError(f"unknown method {method!r}")
    mapping = tuple((u, fn(u)) for u in elements(M.group))
    return RetractionTable(M.group, tuple(M.elements), mapping, provenance=provenance)
