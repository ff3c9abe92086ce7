"""Retractions of a Weyl group onto a finite subset.

Three routes onto a subset M:

* greedy: build the image window letter by letter, always taking the
  candidate that comes earliest in the linear order the base element u
  induces on window letters, restricted to prefixes of M (per factor);
* order-theoretic: the unique Bruhat-minimum (or -maximum) of u^-1 M,
  multiplied back by u, with `NotAMatroidAt` when uniqueness fails;
* metric: the set of elements of M closest to u in the word metric.

The metric route needs no arrays: d(u, v) is half the popcount of the
XOR of two integer root-set bitmasks (`weyl.root_set`), which are cached
per element, so the base element's mask and those of M's members
(`SubsetM.root_sets`) are each computed once, whichever table or fan asks
for them first.  The order route runs on integer arrays: its kernels are
in `order`, the one module that imports numpy, which `matroid_retract`,
`retraction_table` (method "matroid") and `_dominates_all` load when
first called, so that the greedy and metric routes never load numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import DescriptorMismatch, NotAMatroidAt, NotAProduct
from .weyl import (
    GroupDescriptor,
    SignedPermutation,
    _canonical_key,
    elements,
    factor_extended_window,
    root_set,
)

if TYPE_CHECKING:
    from .order import PerLevel

Trie = dict[int, "Trie"]


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
        object.__setattr__(self, "elements", tuple(sorted(uniq.values(), key=_canonical_key)))

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
        return w.window in self.index

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        """The position in `elements` of each member, by window."""
        return {w.window: i for i, w in enumerate(self.elements)}

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
    def root_sets(self) -> tuple[int, ...]:
        """`weyl.root_set` of each member, in order."""
        return tuple(map(root_set, self.elements))

    @cached_property
    def _prefixes(self) -> tuple[PerLevel, PerLevel]:
        from .order import _prefix_arrays

        return _prefix_arrays(self)

    @property
    def prefix_sets(self) -> PerLevel:
        """Per factor and level k = 1..rank, the distinct sets of the first
        k letters of the members in that factor, one sorted row of window
        letters per set.  Dominance tables depend only on these sets."""
        return self._prefixes[0]

    @property
    def prefix_ids(self) -> PerLevel:
        """Per factor and level, the row in `prefix_sets` of each member's
        set, in the order of `elements`."""
        return self._prefixes[1]


def _check_base(M: SubsetM, u: SignedPermutation) -> None:
    if u.group != M.group:
        raise DescriptorMismatch(
            f"base element {list(u.window)} of {u.group} is not in {M.group}"
        )


def algebraic_retract(
    M: SubsetM, u: SignedPermutation, side: str = "min"
) -> SignedPermutation:
    """Greedy retraction: per factor, repeatedly take the earliest (side
    "min") or latest ("max") still-extendable letter in the order u induces
    on window letters.  Needs M to be a product across factors."""
    _check_base(M, u)
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    if len(M.group.factors) > 1 and not M.is_product:
        sizes = tuple(map(len, M.projections))
        raise NotAProduct(
            f"|M| = {len(M)} but the factor projections have sizes {sizes}"
        )
    pick = min if side == "min" else max
    win: list[int] = []
    for (off, f), trie, loc in zip(M.group.segments(), M.tries, u.local_windows()):
        pos = {v: i for i, v in enumerate(factor_extended_window(f, loc))}
        node = trie
        for _ in range(f.rank):
            v = pick(node, key=pos.__getitem__)
            win.append(v + off if v > 0 else v - off)
            node = node[v]
    return SignedPermutation._unchecked(M.group, tuple(win))


def _dominates_all(M: SubsetM, u: SignedPermutation, cand: SignedPermutation, side: str) -> bool:
    """Whether the member cand of M is the unique extremum of u^-1 M, which
    for a member means lying below (above) every translate."""
    from .order import _extrema

    return bool(_extrema(M, [u.window], side)[0] == M.index[cand.window])


def _unique_extremum(
    u: SignedPermutation, extremal: tuple[SignedPermutation, ...]
) -> SignedPermutation:
    if len(extremal) == 1:
        return extremal[0]
    raise NotAMatroidAt(u, extremal)


def matroid_retract(M: SubsetM, u: SignedPermutation, side: str = "min") -> SignedPermutation:
    """The unique element of M whose translate u^-1 v is Bruhat-least
    (side "min") or -greatest ("max") in u^-1 M; raises `NotAMatroidAt`
    listing the extremal elements when there is no unique one.  The
    extremum read off M's prefix-set bounds (`order._extrema`) is tried
    first, and the quadratic scan `order._extremal_elements` runs only when
    none is found there."""
    _check_base(M, u)
    if side not in ("min", "max"):
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    from .order import _extremal_sets

    return _unique_extremum(u, next(_extremal_sets(M, (u,), side, greedy_first=True)))


def closest_set(
    M: SubsetM, u: SignedPermutation
) -> tuple[tuple[SignedPermutation, ...], int]:
    """Elements of M at minimal word-metric distance from u, with the
    distance.  d(u, v) = l(u^-1 v) is the number of root hyperplanes
    between the chambers of u and v, which is half the size of the
    symmetric difference of their root sets (`weyl.root_set`): one XOR
    and one popcount per member, against the masks `SubsetM.root_sets`
    holds."""
    _check_base(M, u)
    mine = root_set(u)
    dist = [(mine ^ theirs).bit_count() for theirs in M.root_sets]
    best = min(dist)
    return tuple(compress(M.elements, [d == best for d in dist])), best // 2


@dataclass(frozen=True)
class RetractionTable:
    """A total map W -> targets fixing every target pointwise.

    `images[k]` is the image of `elements(group)[k]`, so the base elements
    are implicit and the table covers W exactly once by construction;
    `mapping` pairs them up in that enumeration order."""

    group: GroupDescriptor
    targets: tuple[SignedPermutation, ...]
    images: tuple[SignedPermutation, ...]
    provenance: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(self.images))
        object.__setattr__(
            self,
            "targets",
            tuple(sorted(self.targets, key=_canonical_key)),
        )
        if len(self.images) != self.group.order():
            raise ValueError(
                f"table has {len(self.images)} images for {self.group.order()} elements"
            )
        target_windows = {t.window for t in self.targets}
        for u, v in self.mapping:
            if v.window not in target_windows:
                raise ValueError(f"image {list(v.window)} is not a target")
            if u.window in target_windows and u.window != v.window:
                raise ValueError(f"target {list(u.window)} not fixed")

    @cached_property
    def mapping(self) -> tuple[tuple[SignedPermutation, SignedPermutation], ...]:
        """(base element, image) pairs in enumeration order."""
        return tuple(zip(elements(self.group), self.images))

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


def retraction_table(
    M: SubsetM,
    method: str = "algebraic",
    greedy_first: bool = True,
) -> RetractionTable:
    """Tabulate a retraction over the whole group.  Only side "min" fixes
    M; side "max" at u is side "min" at u w0."""
    us = elements(M.group)
    if method == "algebraic":
        images = [algebraic_retract(M, u) for u in us]
        provenance = "algebraic-greedy"
    elif method == "matroid":
        from .order import _extremal_sets

        extremal = _extremal_sets(M, us, "min", greedy_first)
        images = [_unique_extremum(u, ext) for u, ext in zip(us, extremal)]
        provenance = "matroid-minimum"
    else:
        raise ValueError(f"unknown method {method!r}")
    return RetractionTable(M.group, M.elements, images, provenance=provenance)
