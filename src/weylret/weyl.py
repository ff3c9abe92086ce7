"""Signed permutations, length, Bruhat order and chamber data for the
classical Weyl groups of types A, BC and D, plus finite products of them.

Window notation: an element is the tuple (w(1), ..., w(n)) of nonzero
integers whose absolute values permute 1..n; the entry -k stands for the
barred letter "k bar", and w(-i) = -w(i) is implicit.  Letters compare in
the order 1 < 2 < ... < n < nbar < ... < 2bar < 1bar.  `order_key` encodes
that order; window letters are never compared as raw integers.

Type BC takes the sign change on the last coordinate as its extra simple
reflection (simple roots e_i - e_{i+1} and 2e_n); type D takes the double
sign change on the last two coordinates (extra simple root e_{n-1} + e_n).
Length is the number of positive roots sent to negative roots, which the
test suite pins against breadth-first word length over these generators.

A product group is stored as one concatenated window: the factor starting
at offset t with rank r owns the letters t+1 .. t+r.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    BoundaryPoint,
    DescriptorMismatch,
    EnumerationCapExceeded,
    ParseError,
)

DEFAULT_ENUMERATION_CAP = 10**6


class WeylType(str, Enum):
    A = "A"
    BC = "BC"
    D = "D"


@dataclass(frozen=True, slots=True)
class Factor:
    """One irreducible factor; for type A the rank is the window length n,
    so Factor(A, n) is the symmetric group S_n."""

    type: WeylType
    rank: int

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank!r}")
        if self.type in (WeylType.BC, WeylType.D) and self.rank < 2:
            raise ValueError(f"type {self.type.value} needs rank >= 2")

    def order(self) -> int:
        n = self.rank
        if self.type is WeylType.A:
            return math.factorial(n)
        if self.type is WeylType.BC:
            return 2**n * math.factorial(n)
        return 2 ** (n - 1) * math.factorial(n)


@dataclass(frozen=True, slots=True)
class GroupDescriptor:
    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("descriptor needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @classmethod
    def simple(cls, type: WeylType | str, rank: int) -> "GroupDescriptor":
        return cls((Factor(WeylType(type), rank),))

    @property
    def window_length(self) -> int:
        return sum(f.rank for f in self.factors)

    # The ambient vector space is the direct sum of the factor ambients,
    # one coordinate per window letter.
    @property
    def ambient_dim(self) -> int:
        return self.window_length

    def segments(self) -> tuple[tuple[int, Factor], ...]:
        """(offset, factor) pairs; the factor owns letters offset+1..offset+rank."""
        out = []
        t = 0
        for f in self.factors:
            out.append((t, f))
            t += f.rank
        return tuple(out)

    def order(self) -> int:
        return math.prod(f.order() for f in self.factors)

    def identity(self) -> "SignedPermutation":
        return SignedPermutation(self, tuple(range(1, self.window_length + 1)))

    def element(self, window: Sequence[int]) -> "SignedPermutation":
        return SignedPermutation(self, tuple(window))

    def simple_roots(self) -> tuple[tuple[int, ...], ...]:
        """Simple roots of the product system as integer vectors."""
        out = []
        dim = self.ambient_dim
        for off, f in self.segments():
            for local in _factor_simple_roots(f):
                out.append(_embed(local, off, dim))
        return tuple(out)

    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        out = []
        dim = self.ambient_dim
        for off, f in self.segments():
            for local in _factor_positive_roots(f):
                out.append(_embed(local, off, dim))
        return tuple(out)

    def all_roots(self) -> tuple[tuple[int, ...], ...]:
        pos = self.positive_roots()
        return pos + tuple(tuple(-c for c in r) for r in pos)

    def simple_reflections(self) -> tuple["SignedPermutation", ...]:
        out = []
        for off, f in self.segments():
            for s in range(_simple_count(f)):
                win = list(range(1, self.window_length + 1))
                loc = _apply_simple(f.type, tuple(range(1, f.rank + 1)), s)
                win[off : off + f.rank] = [_globalize(v, off) for v in loc]
                out.append(SignedPermutation(self, tuple(win)))
        return tuple(out)

    def reflections(self) -> tuple["SignedPermutation", ...]:
        """All reflections, one per positive root, in root order."""
        out = []
        for off, f in self.segments():
            for loc in _factor_reflection_windows(f):
                win = list(range(1, self.window_length + 1))
                win[off : off + f.rank] = [_globalize(v, off) for v in loc]
                out.append(SignedPermutation(self, tuple(win)))
        return tuple(out)

    def to_json(self) -> dict:
        return {"factors": [{"type": f.type.value, "rank": f.rank} for f in self.factors]}

    @classmethod
    def from_json(cls, data: dict) -> "GroupDescriptor":
        try:
            factors = tuple(
                Factor(WeylType(f["type"]), int(f["rank"])) for f in data["factors"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad group descriptor: {data!r}") from exc
        return cls(factors)


def order_key(value: int, rank: int) -> int:
    """Position of a window letter in 1 < ... < n < nbar < ... < 1bar."""
    if value == 0 or abs(value) > rank:
        raise ValueError(f"letter {value} out of range for rank {rank}")
    return value if value > 0 else 2 * rank + 1 + value


@dataclass(frozen=True, slots=True)
class SignedPermutation:
    group: GroupDescriptor
    window: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", tuple(self.window))
        win = self.window
        if len(win) != self.group.window_length:
            raise ValueError(
                f"window length {len(win)} != {self.group.window_length}"
            )
        for off, f in self.group.segments():
            seg = win[off : off + f.rank]
            if {abs(v) for v in seg} != set(range(off + 1, off + f.rank + 1)):
                raise ValueError(f"segment {seg} is not signed-bijective at offset {off}")
            bars = sum(1 for v in seg if v < 0)
            if f.type is WeylType.A and bars:
                raise ValueError(f"type A segment {seg} has barred letters")
            if f.type is WeylType.D and bars % 2:
                raise ValueError(f"type D segment {seg} has odd bar count")

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return compose(self, other)

    def inverse(self) -> "SignedPermutation":
        return inverse(self)

    def length(self) -> int:
        return length(self)

    def local_windows(self) -> tuple[tuple[int, ...], ...]:
        """Per-factor windows with letters renumbered to 1..rank."""
        out = []
        for off, f in self.group.segments():
            seg = self.window[off : off + f.rank]
            out.append(tuple(v - off if v > 0 else v + off for v in seg))
        return tuple(out)

    def to_json(self) -> list[int]:
        return list(self.window)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SignedPermutation({list(self.window)})"


def _globalize(local: int, offset: int) -> int:
    return local + offset if local > 0 else local - offset


def _check_same_group(v: SignedPermutation, w: SignedPermutation) -> None:
    if v.group != w.group:
        raise DescriptorMismatch(f"{v.group} != {w.group}")


def compose(v: SignedPermutation, w: SignedPermutation) -> SignedPermutation:
    """(v w)(i) = v(w(i)), extended to barred letters by v(-i) = -v(i)."""
    _check_same_group(v, w)
    vw = v.window
    out = tuple(vw[k - 1] if k > 0 else -vw[-k - 1] for k in w.window)
    return SignedPermutation(v.group, out)


def inverse(w: SignedPermutation) -> SignedPermutation:
    out = [0] * len(w.window)
    for i, v in enumerate(w.window, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return SignedPermutation(w.group, tuple(out))


def _length_a(win: Sequence[int]) -> int:
    return sum(
        1 for i in range(len(win)) for j in range(i + 1, len(win)) if win[i] > win[j]
    )


def _length_signed(ftype: WeylType, win: Sequence[int]) -> int:
    # Count positive roots sent to negative ones; a root image is negative
    # exactly when its first nonzero coordinate is negative.
    n = len(win)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = win[i], win[j]
            # image of e_i - e_j
            if (abs(a) < abs(b) and a < 0) or (abs(a) > abs(b) and b > 0):
                total += 1
            # image of e_i + e_j
            if (abs(a) < abs(b) and a < 0) or (abs(a) > abs(b) and b < 0):
                total += 1
    if ftype is WeylType.BC:
        total += sum(1 for v in win if v < 0)
    return total


def length(w: SignedPermutation) -> int:
    total = 0
    for f, loc in zip(w.group.factors, w.local_windows()):
        if f.type is WeylType.A:
            total += _length_a(loc)
        else:
            total += _length_signed(f.type, loc)
    return total


def metric(v: SignedPermutation, w: SignedPermutation) -> int:
    """Word metric d(v, w) = length(v^-1 w); left invariant."""
    return length(compose(inverse(v), w))


# --- Bruhat order ---------------------------------------------------------

def _bruhat_leq_a(v: Sequence[int], w: Sequence[int]) -> bool:
    # Sorted-prefix dominance: v <= w iff for each k the increasing
    # rearrangement of v(1..k) is entrywise <= that of w(1..k).
    sv: list[int] = []
    sw: list[int] = []
    for k in range(len(v) - 1):
        bisect.insort(sv, v[k])
        bisect.insort(sw, w[k])
        for a, b in zip(sv, sw):
            if a > b:
                return False
    return True


def _simple_count(f: Factor) -> int:
    return f.rank - 1 if f.type is WeylType.A else f.rank


def _apply_simple(ftype: WeylType, win: tuple[int, ...], s: int) -> tuple[int, ...]:
    """Right multiplication by the s-th simple reflection, 0-based."""
    n = len(win)
    w = list(win)
    if s < n - 1:
        w[s], w[s + 1] = w[s + 1], w[s]
    elif ftype is WeylType.BC:
        w[n - 1] = -w[n - 1]
    else:
        w[n - 2], w[n - 1] = -w[n - 1], -w[n - 2]
    return tuple(w)


def _descent(ftype: WeylType, win: tuple[int, ...], s: int) -> bool:
    """True when right multiplication by simple s shortens win."""
    n = len(win)
    if s < n - 1:
        a, b = win[s], win[s + 1]
        if ftype is WeylType.A:
            return a > b
        return (abs(a) < abs(b) and a < 0) or (abs(a) > abs(b) and b > 0)
    if ftype is WeylType.BC:
        return win[n - 1] < 0
    a, b = win[n - 2], win[n - 1]
    return (abs(a) < abs(b) and a < 0) or (abs(a) > abs(b) and b < 0)


_SIGNED_BRUHAT_CACHE: dict[tuple, bool] = {}


def _bruhat_leq_signed(ftype: WeylType, v: tuple[int, ...], w: tuple[int, ...]) -> bool:
    # Lifting property: for s a right descent of w, v <= w iff
    # (vs <= ws when s is a descent of v, else v <= ws).
    if v == w:
        return True
    if _length_signed(ftype, v) >= _length_signed(ftype, w):
        return False
    key = (ftype, v, w)
    cached = _SIGNED_BRUHAT_CACHE.get(key)
    if cached is not None:
        return cached
    nsimple = len(v) if ftype is not WeylType.A else len(v) - 1
    s = next(s for s in range(nsimple) if _descent(ftype, w, s))
    ws = _apply_simple(ftype, w, s)
    if _descent(ftype, v, s):
        res = _bruhat_leq_signed(ftype, _apply_simple(ftype, v, s), ws)
    else:
        res = _bruhat_leq_signed(ftype, v, ws)
    _SIGNED_BRUHAT_CACHE[key] = res
    return res


def bruhat_leq(v: SignedPermutation, w: SignedPermutation) -> bool:
    """Bruhat order; on products, the conjunction over factors."""
    _check_same_group(v, w)
    for f, lv, lw in zip(v.group.factors, v.local_windows(), w.local_windows()):
        if f.type is WeylType.A:
            if not _bruhat_leq_a(lv, lw):
                return False
        elif not _bruhat_leq_signed(f.type, lv, lw):
            return False
    return True


# --- The linear order <=^u on window letters ------------------------------

def factor_extended_window(f: Factor, loc: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of one factor's local window in the order <=^u:
    loc for type A, loc followed by its negated reversal for BC/D."""
    if f.type is WeylType.A:
        return loc
    return loc + tuple(-v for v in reversed(loc))


def extended_window(u: SignedPermutation) -> tuple[int, ...]:
    """u(1)..u(n) for type A; u(1)..u(n)u(nbar)..u(1bar) for BC/D.

    Single-factor groups only: the letters of distinct factors are not
    comparable.
    """
    if len(u.group.factors) != 1:
        raise ValueError("extended window is defined per factor")
    return factor_extended_window(u.group.factors[0], u.window)


def letter_positions(u: SignedPermutation) -> dict[int, int]:
    """Letter -> position in the extended window (the <=^u rank)."""
    return {v: i for i, v in enumerate(extended_window(u))}


# --- Enumeration ----------------------------------------------------------

def _factor_windows(f: Factor) -> Iterator[tuple[int, ...]]:
    """All local windows in lexicographic order under `order_key`."""
    r = f.rank
    if f.type is WeylType.A:
        yield from itertools.permutations(range(1, r + 1))
        return

    def rec(prefix: list[int], used: set[int], bars: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == r:
            yield tuple(prefix)
            return
        last = len(prefix) == r - 1
        cands = [s * a for a in range(1, r + 1) if a not in used for s in (1, -1)]
        cands.sort(key=lambda v: order_key(v, r))
        for v in cands:
            if f.type is WeylType.D and last and (bars + (v < 0)) % 2:
                continue
            prefix.append(v)
            used.add(abs(v))
            yield from rec(prefix, used, bars + (v < 0))
            used.discard(abs(v))
            prefix.pop()

    yield from rec([], set(), 0)


def enumerate_group(
    descriptor: GroupDescriptor, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[SignedPermutation]:
    """All elements, windows in lexicographic order under `order_key`."""
    if descriptor.order() > cap:
        raise EnumerationCapExceeded(
            f"group order {descriptor.order()} exceeds cap {cap}"
        )
    streams = []
    for off, f in descriptor.segments():
        streams.append(
            [tuple(_globalize(v, off) for v in win) for win in _factor_windows(f)]
        )
    for combo in itertools.product(*streams):
        yield SignedPermutation(descriptor, tuple(itertools.chain.from_iterable(combo)))


@lru_cache(maxsize=64)
def elements(descriptor: GroupDescriptor) -> tuple[SignedPermutation, ...]:
    """Cached tuple of all elements in enumeration order."""
    return tuple(enumerate_group(descriptor))


def longest_element(descriptor: GroupDescriptor) -> SignedPermutation:
    win: list[int] = []
    for off, f in descriptor.segments():
        r = f.rank
        if f.type is WeylType.A:
            loc = list(range(r, 0, -1))
        elif f.type is WeylType.BC:
            loc = [-i for i in range(1, r + 1)]
        else:
            # -1 on all coordinates when r is even, else -1 except the last
            loc = [-i for i in range(1, r + 1)]
            if r % 2:
                loc[-1] = r
        win.extend(_globalize(v, off) for v in loc)
    return SignedPermutation(descriptor, tuple(win))


# --- Chambers and the reflection action -----------------------------------

Scalar = int | Fraction


def act_on_vector(u: SignedPermutation, nu: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Permutation action e_i -> e_{u(i)} with e_{ibar} = -e_i."""
    if len(nu) != u.group.ambient_dim:
        raise ValueError(f"vector length {len(nu)} != {u.group.ambient_dim}")
    out: list[Scalar] = [0] * len(nu)
    for i, v in enumerate(u.window):
        if v > 0:
            out[v - 1] = nu[i]
        else:
            out[-v - 1] = -nu[i]
    return tuple(out)


def _chamber_a(lam: Sequence[Scalar], r: int) -> tuple[int, ...]:
    # interior of C(u): lam_{u(1)} < ... < lam_{u(r)}
    order = sorted(range(1, r + 1), key=lambda i: lam[i - 1])
    for a, b in itertools.pairwise(order):
        if lam[a - 1] == lam[b - 1]:
            raise BoundaryPoint(f"tied coordinates {a}, {b}")
    return tuple(order)


def _chamber_bc(lam: Sequence[Scalar], r: int) -> tuple[int, ...]:
    # interior: lam_{u(1)} < ... < lam_{u(r)} < 0 with lam_{ibar} = -lam_i
    for i in range(r):
        if lam[i] == 0:
            raise BoundaryPoint(f"coordinate {i + 1} vanishes")
        for j in range(i + 1, r):
            if abs(lam[i]) == abs(lam[j]):
                raise BoundaryPoint(f"tied absolute values at {i + 1}, {j + 1}")
    by_abs = sorted(range(1, r + 1), key=lambda i: abs(lam[i - 1]), reverse=True)
    return tuple(i if lam[i - 1] < 0 else -i for i in by_abs)


def _chamber_d(lam: Sequence[Scalar], r: int) -> tuple[int, ...]:
    # interior: lam_{u(1)} < ... < lam_{u(r-1)} < lam_{u(r)} < -lam_{u(r-1)};
    # the sign of the last letter is fixed by the even bar count.
    for i in range(r):
        for j in range(i + 1, r):
            if abs(lam[i]) == abs(lam[j]):
                raise BoundaryPoint(f"tied absolute values at {i + 1}, {j + 1}")
    by_abs = sorted(range(1, r + 1), key=lambda i: abs(lam[i - 1]), reverse=True)
    win = [i if lam[i - 1] < 0 else -i for i in by_abs[: r - 1]]
    bars = sum(1 for v in win if v < 0)
    last = by_abs[r - 1]
    win.append(last if bars % 2 == 0 else -last)
    return tuple(win)


def chamber_of(lam: Sequence[Scalar], descriptor: GroupDescriptor) -> SignedPermutation:
    """The u whose closed chamber C(u) contains lam in its interior."""
    if len(lam) != descriptor.ambient_dim:
        raise ValueError(f"point length {len(lam)} != {descriptor.ambient_dim}")
    win: list[int] = []
    for off, f in descriptor.segments():
        part = lam[off : off + f.rank]
        if f.type is WeylType.A:
            loc = _chamber_a(part, f.rank)
        elif f.type is WeylType.BC:
            loc = _chamber_bc(part, f.rank)
        else:
            loc = _chamber_d(part, f.rank)
        win.extend(_globalize(v, off) for v in loc)
    return SignedPermutation(descriptor, tuple(win))


# --- Root data ------------------------------------------------------------

def _unit(i: int, dim: int) -> list[int]:
    v = [0] * dim
    v[i] = 1
    return v


def _factor_simple_roots(f: Factor) -> list[tuple[int, ...]]:
    r = f.rank
    out = []
    for i in range(r - 1):
        v = [0] * r
        v[i], v[i + 1] = 1, -1
        out.append(tuple(v))
    if f.type is WeylType.BC:
        v = [0] * r
        v[r - 1] = 2
        out.append(tuple(v))
    elif f.type is WeylType.D:
        v = [0] * r
        v[r - 2] = v[r - 1] = 1
        out.append(tuple(v))
    return out


def _factor_positive_roots(f: Factor) -> list[tuple[int, ...]]:
    r = f.rank
    out = []
    for i in range(r):
        for j in range(i + 1, r):
            v = [0] * r
            v[i], v[j] = 1, -1
            out.append(tuple(v))
    if f.type is not WeylType.A:
        for i in range(r):
            for j in range(i + 1, r):
                v = [0] * r
                v[i] = v[j] = 1
                out.append(tuple(v))
    if f.type is WeylType.BC:
        for i in range(r):
            v = [0] * r
            v[i] = 2
            out.append(tuple(v))
    return out


def _factor_reflection_windows(f: Factor) -> list[tuple[int, ...]]:
    """Reflection windows in the same order as `_factor_positive_roots`."""
    r = f.rank
    ident = tuple(range(1, r + 1))
    out = []
    for i in range(r):
        for j in range(i + 1, r):
            w = list(ident)
            w[i], w[j] = j + 1, i + 1
            out.append(tuple(w))
    if f.type is not WeylType.A:
        for i in range(r):
            for j in range(i + 1, r):
                w = list(ident)
                w[i], w[j] = -(j + 1), -(i + 1)
                out.append(tuple(w))
    if f.type is WeylType.BC:
        for i in range(r):
            w = list(ident)
            w[i] = -(i + 1)
            out.append(tuple(w))
    return out


def _embed(local: tuple[int, ...], offset: int, dim: int) -> tuple[int, ...]:
    v = [0] * dim
    v[offset : offset + len(local)] = local
    return tuple(v)


def is_negative_root_vector(vec: Sequence[Scalar]) -> bool:
    """A vector that is a root is negative iff its first nonzero entry is."""
    for c in vec:
        if c != 0:
            return c < 0
    raise ValueError("zero vector is not a root")
