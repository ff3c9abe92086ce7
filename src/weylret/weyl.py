"""Signed permutations, length, Bruhat order and chamber data for the
classical Weyl groups of types A, BC and D, plus finite products of them.

Window notation: an element is the tuple (w(1), ..., w(n)) of nonzero
integers whose absolute values permute 1..n; the entry -k stands for the
barred letter "k bar", and w(-i) = -w(i) is implicit.  Letters compare in
the order 1 < 2 < ... < n < nbar < ... < 2bar < 1bar.  `order_key` encodes
that order; window letters are never compared as raw integers.

The root data is read off the positive roots that `_factor_positive_roots`
lists: the simple roots are those that are not a sum of two, and each
reflection is s_beta(x) = x - 2<x,beta>/<beta,beta> beta.  So type BC
takes the sign change on the last coordinate as its extra simple
reflection (simple roots e_i - e_{i+1} and 2e_n); type D takes the double
sign change on the last two coordinates (extra simple root e_{n-1} + e_n).
Length is the number of positive roots sent to negative roots, which the
test suite pins against breadth-first word length over these generators.

Bruhat order has one criterion on every type, with no cache: the
sorted-prefix test on letter ranks in the order above, plus on D a parity
condition on prefixes (`_parity_meets`).  The order route of `retraction`
applies the same criterion to whole arrays: the sorted prefixes, and on D
the parity keys of `retraction._set_parity_keys`.

`root_set` gives the roots a chamber sees negative as one integer
bitmask, so word distances are popcounts of an XOR; the fan and the
metric route of `retraction` both read it, through one bounded cache per
element.

`_walk` finds a closed chamber that holds a point, on every type, by
walking across walls from the identity chamber.  `chamber_of` takes the
chamber it reaches, and `closed_chambers`, which `fan.query` calls, adds
the star of the walls through the point.

A product group is stored as one concatenated window: the factor starting
at offset t with rank r owns the letters t+1 .. t+r.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
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
        if type(self.rank) is not int or self.rank < 1:
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
    # derived from factors once; not part of equality, hashing or JSON.
    # _hash is the hash of (factors,), so that every per-group cache lookup
    # and every element hash reads it instead of hashing each factor again.
    _segments: tuple[tuple[int, Factor], ...] = field(
        init=False, repr=False, compare=False
    )
    window_length: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.factors:
            raise ValueError("descriptor needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))
        offsets = itertools.accumulate((f.rank for f in self.factors), initial=0)
        object.__setattr__(self, "_segments", tuple(zip(offsets, self.factors)))
        object.__setattr__(self, "window_length", sum(f.rank for f in self.factors))
        object.__setattr__(self, "_hash", hash((self.factors,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt from its factors, so the derived fields, the hash above
        # all, are computed in the process that unpickles it
        return (GroupDescriptor, (self.factors,))

    @classmethod
    def simple(cls, type: WeylType | str, rank: int) -> "GroupDescriptor":
        return cls((Factor(WeylType(type), rank),))

    # The ambient vector space is the direct sum of the factor ambients,
    # one coordinate per window letter.
    @property
    def ambient_dim(self) -> int:
        return self.window_length

    def segments(self) -> tuple[tuple[int, Factor], ...]:
        """(offset, factor) pairs; the factor owns letters offset+1..offset+rank."""
        return self._segments

    def order(self) -> int:
        return math.prod(f.order() for f in self.factors)

    def identity(self) -> "SignedPermutation":
        return SignedPermutation(self, tuple(range(1, self.window_length + 1)))

    def element(self, window: Sequence[int]) -> "SignedPermutation":
        """The element with this window; letters must be `int` (no bools,
        floats or strings), so windows read from JSON are checked here."""
        window = tuple(window)
        bad = [v for v in window if type(v) is not int]
        if bad:
            raise ValueError(f"window letters must be integers, got {bad!r}")
        return SignedPermutation(self, window)

    def _embedded(self, factor_roots) -> tuple[tuple[int, ...], ...]:
        """The roots `factor_roots` lists for each factor, as vectors of
        the product system."""
        dim = self.ambient_dim
        return tuple(
            (0,) * off + local + (0,) * (dim - off - f.rank)
            for off, f in self.segments()
            for local in factor_roots(f)
        )

    def simple_roots(self) -> tuple[tuple[int, ...], ...]:
        """Simple roots of the product system as integer vectors."""
        return self._embedded(_factor_simple_roots)

    def positive_roots(self) -> tuple[tuple[int, ...], ...]:
        return self._embedded(_factor_positive_roots)

    def all_roots(self) -> tuple[tuple[int, ...], ...]:
        pos = self.positive_roots()
        return pos + tuple(tuple(-c for c in r) for r in pos)

    def simple_reflections(self) -> tuple["SignedPermutation", ...]:
        """The reflections in the simple roots, in `simple_roots` order."""
        return tuple(_reflection(self, alpha) for alpha in self.simple_roots())

    def reflections(self) -> tuple["SignedPermutation", ...]:
        """All reflections, one per positive root, in root order."""
        return tuple(_reflection(self, beta) for beta in self.positive_roots())

    def to_json(self) -> dict:
        return {"factors": [{"type": f.type.value, "rank": f.rank} for f in self.factors]}

    @classmethod
    def from_json(cls, data: dict) -> "GroupDescriptor":
        """The descriptor of {"factors": [{"type": ..., "rank": ...}, ...]};
        a rank must be a JSON integer, never a float, string or boolean."""
        try:
            return cls(tuple(Factor(WeylType(f["type"]), f["rank"]) for f in data["factors"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad group descriptor: {data!r}") from exc


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

    @classmethod
    def _unchecked(cls, group: GroupDescriptor, window: tuple[int, ...]) -> "SignedPermutation":
        """The element with this window, without the checks of
        `__post_init__`: for results of this package's own operations on
        valid elements, never for input from outside.  `window` must be a
        tuple."""
        w = object.__new__(cls)
        object.__setattr__(w, "group", group)
        object.__setattr__(w, "window", window)
        return w

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        return compose(self, other)

    def local_windows(self) -> tuple[tuple[int, ...], ...]:
        """Per-factor windows with letters renumbered to 1..rank."""
        if len(self.group.factors) == 1:
            return (self.window,)
        out = []
        for off, f in self.group.segments():
            seg = self.window[off : off + f.rank]
            out.append(tuple(v - off if v > 0 else v + off for v in seg))
        return tuple(out)

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
    return SignedPermutation._unchecked(v.group, out)


def inverse(w: SignedPermutation) -> SignedPermutation:
    out = [0] * len(w.window)
    for i, v in enumerate(w.window, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return SignedPermutation._unchecked(w.group, tuple(out))


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

def _bruhat_leq_prefix(v: Sequence[int], w: Sequence[int]) -> bool:
    # Sorted-prefix dominance on the ranks of the letters in
    # 1 < ... < n < nbar < ... < 1bar: v <= w iff for each k the increasing
    # rearrangement of v(1..k) is entrywise <= that of w(1..k).  Type A is
    # the tableau criterion; B_n is the restriction of the order on the
    # permutations of that chain (Bjorner-Brenti, GTM 231, Cor. 8.1.9), and
    # since w(ibar) is the bar of w(i), prefixes longer than n add nothing.
    # On D_n this is condition (i) of the order; `_parity_meets` is (ii).
    top = 2 * len(v) + 1
    sv: list[int] = []
    sw: list[int] = []
    for a, b in zip(v, w):
        bisect.insort(sv, a if a > 0 else top + a)
        bisect.insort(sw, b if b > 0 else top + b)
        for x, y in zip(sv, sw):
            if x > y:
                return False
    return True


def _parity_key(prefix: Sequence[int], r: int, t: int) -> int:
    # The key 2C + P of `retraction._set_parity_keys` at threshold t, or -1
    # when the prefix misses a letter of absolute value >= t.
    high = [a for a in prefix if abs(a) >= t]
    if len(high) != r + 1 - t:
        return -1
    return 2 * sum(1 for a in prefix if -t < a < 0) + sum(1 for a in high if a < 0) % 2


def _parity_meets(v: Sequence[int], w: Sequence[int]) -> bool:
    # Condition (ii) of Bruhat order on D_r (Bjorner-Brenti, GTM 231,
    # Section 8.2) on one pair: at each prefix length k < r and threshold
    # t with k + t > r where both prefixes hold every letter of absolute
    # value >= t and the same number C of barred letters below t, they hold
    # the same parity P of barred letters >= t.  So it fails where two keys
    # differ in their last bit alone.  A prefix full at t is full at every
    # larger t, so t runs down from r until one prefix is not.
    r = len(v)
    for k in range(1, r):
        for t in range(r, r - k, -1):
            kv, kw = _parity_key(v[:k], r, t), _parity_key(w[:k], r, t)
            if kv ^ kw == 1:
                return False
            if min(kv, kw) < 0:
                break
    return True


def bruhat_leq(v: SignedPermutation, w: SignedPermutation) -> bool:
    """Bruhat order; on products, the conjunction over factors: the
    sorted-prefix test, and on D factors also `_parity_meets`."""
    _check_same_group(v, w)
    for f, lv, lw in zip(v.group.factors, v.local_windows(), w.local_windows()):
        if not _bruhat_leq_prefix(lv, lw):
            return False
        if f.type is WeylType.D and not _parity_meets(lv, lw):
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
    """All local windows in lexicographic order under `order_key`.

    The 2r letters are sorted by `order_key` once; each node extends its
    prefix by the letters not yet used, in that order.  The last letter is
    the one absolute value left, unbarred before barred, and on D only
    the one that makes the bar count even."""
    r = f.rank
    if f.type is WeylType.A:
        yield from itertools.permutations(range(1, r + 1))
        return
    letters = sorted([*range(1, r + 1), *range(-r, 0)], key=lambda v: order_key(v, r))
    # the signs the last letter may take, by the parity of the bars before it
    last_signs = ((1, -1), (1, -1)) if f.type is WeylType.BC else ((1,), (-1,))

    def rec(prefix: tuple[int, ...], used: int, left: int, bars: int) -> Iterator[tuple[int, ...]]:
        if len(prefix) == r - 1:
            for s in last_signs[bars % 2]:
                yield (*prefix, s * left)
            return
        for v in letters:
            a = abs(v)
            if not used >> a & 1:
                yield from rec((*prefix, v), used | 1 << a, left - a, bars + (v < 0))

    yield from rec((), 0, r * (r + 1) // 2, 0)


def _order_exceeds_cap(descriptor: GroupDescriptor) -> bool:
    """Whether the group order passes `DEFAULT_ENUMERATION_CAP`, multiplied
    up one step at a time and stopped once it does: the order of a large
    group takes long to compute and has too many digits to print."""
    total = 1
    for f in descriptor.factors:
        # r! on A, 2^r r! on BC and 2^(r-1) r! on D, as factors k or 2k
        for k in range(1, f.rank + 1):
            total *= k if f.type is WeylType.A or (k == 1 and f.type is WeylType.D) else 2 * k
            if total > DEFAULT_ENUMERATION_CAP:
                return True
    return False


def enumerate_group(descriptor: GroupDescriptor) -> Iterator[SignedPermutation]:
    """All elements, windows in lexicographic order under `order_key`."""
    if _order_exceeds_cap(descriptor):
        cap = DEFAULT_ENUMERATION_CAP
        raise EnumerationCapExceeded(f"group order exceeds the enumeration cap {cap}")
    streams = []
    for off, f in descriptor.segments():
        streams.append(
            [tuple(_globalize(v, off) for v in win) for win in _factor_windows(f)]
        )
    for combo in itertools.product(*streams):
        yield SignedPermutation._unchecked(
            descriptor, tuple(itertools.chain.from_iterable(combo))
        )


@lru_cache(maxsize=16)
def _letter_keys(group: GroupDescriptor) -> dict[int, int]:
    """Each window letter of the group -> `order_key` of its local letter
    in its factor's chain 1 < ... < r < rbar < ... < 1bar.  Shared and
    only read."""
    keys = {}
    for off, f in group.segments():
        for i in range(1, f.rank + 1):
            keys[off + i] = order_key(i, f.rank)
            keys[-off - i] = order_key(-i, f.rank)
    return keys


def _canonical_key(w: SignedPermutation) -> tuple[int, ...]:
    """The sort key of enumeration order: per factor, the local letters'
    `order_key`s, concatenated.  `SubsetM`, table targets and
    `closed_chambers` sort by it."""
    return tuple(map(_letter_keys(w.group).__getitem__, w.window))


@lru_cache(maxsize=64)
def elements(descriptor: GroupDescriptor) -> tuple[SignedPermutation, ...]:
    """Cached tuple of all elements in enumeration order."""
    return tuple(enumerate_group(descriptor))


def default_base_point(group: GroupDescriptor) -> tuple[int, ...]:
    """An integer point interior to the identity chamber: 0..r-1 on A
    blocks, -r..-1 on BC blocks, -r..-2 then 0 on D blocks."""
    out: list[int] = []
    for _, f in group.segments():
        if f.type is WeylType.A:
            out.extend(range(f.rank))
        elif f.type is WeylType.BC:
            out.extend(range(-f.rank, 0))
        else:
            out.extend(range(-f.rank, -1))
            out.append(0)
    return tuple(out)


def longest_element(descriptor: GroupDescriptor) -> SignedPermutation:
    """w0, the chamber of the negated base point: w0 sends the identity
    chamber to its negative."""
    return chamber_of(tuple(-c for c in default_base_point(descriptor)), descriptor)


# --- Chambers and the reflection action -----------------------------------

Scalar = int | Fraction


def act_on_vector(u: SignedPermutation, nu: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """Permutation action e_i -> e_{u(i)} with e_{ibar} = -e_i."""
    if len(nu) != len(u.window):
        raise ValueError(f"vector length {len(nu)} != {len(u.window)}")
    out: list[Scalar] = [0] * len(nu)
    for i, v in enumerate(u.window):
        if v > 0:
            out[v - 1] = nu[i]
        else:
            out[-v - 1] = -nu[i]
    return tuple(out)


@lru_cache(maxsize=16)
def _walls(group: GroupDescriptor) -> tuple[tuple, tuple[SignedPermutation, ...]]:
    """For each simple root alpha_k, the nonzero entries (i, c) of
    -alpha_k, and the simple reflections s_k: what `_walk` and
    `closed_chambers` step with, built once per group.  Shared and only
    read."""
    alphas = group.simple_roots()
    walls = tuple(tuple((i, -c) for i, c in enumerate(alpha) if c) for alpha in alphas)
    return walls, group.simple_reflections()


def _wall_dots(
    u: SignedPermutation,
    walls: Sequence[Sequence[tuple[int, int]]],
    point: Sequence[Scalar],
) -> list[Scalar]:
    """<u(-alpha_k), point> for each simple root alpha_k, in order, with
    walls[k] the nonzero entries (i, c) of -alpha_k: the point lies in the
    closed chamber of u iff none is negative, and a zero puts it on the
    wall that chamber shares with the chamber of u s_k.  Computed as
    <-alpha_k, u^-1 point>, since u is orthogonal."""
    pulled = [point[v - 1] if v > 0 else -point[-v - 1] for v in u.window]
    dots = []
    for wall in walls:
        d = 0
        for i, c in wall:
            d += c * pulled[i]
        dots.append(d)
    return dots


def _walk(
    point: Sequence[Scalar], group: GroupDescriptor
) -> tuple[SignedPermutation, list[Scalar]]:
    """A u whose closed chamber C(u) holds the point, and its `_wall_dots`.
    C(u) is where <u(-alpha), point> >= 0 for every simple root alpha: on
    a type A block, lam_{u(1)} <= ... <= lam_{u(r)}.

    The walk starts at the identity: while a wall of the chamber of u has
    the point strictly on its far side, it steps across it to u s_k.  Each
    step crosses one of the root hyperplanes that separate the chamber
    from the point, so the walk ends within l(w0) steps."""
    if len(point) != group.ambient_dim:
        raise ValueError(f"point length {len(point)} != {group.ambient_dim}")
    walls, simples = _walls(group)
    u = group.identity()
    dots = _wall_dots(u, walls, point)
    while (k := next((k for k, d in enumerate(dots) if d < 0), None)) is not None:
        u = compose(u, simples[k])
        dots = _wall_dots(u, walls, point)
    return u, dots


def closed_chambers(
    point: Sequence[Scalar], group: GroupDescriptor
) -> tuple[SignedPermutation, ...]:
    """Every u whose closed chamber holds the point, in enumeration order:
    the star of the walls through the point around the chamber that
    `_walk` reaches, that is the chambers reached from it across walls
    that contain the point (the coset u W_J of its stabilizer)."""
    u, dots = _walk(point, group)
    walls, simples = _walls(group)
    star = {u.window: u}
    frontier = [(u, dots)]
    while frontier:
        v, dots = frontier.pop()
        for k, d in enumerate(dots):
            if d == 0:
                w = compose(v, simples[k])
                if w.window not in star:
                    star[w.window] = w
                    frontier.append((w, _wall_dots(w, walls, point)))
    return tuple(sorted(star.values(), key=_canonical_key))


def chamber_of(lam: Sequence[Scalar], descriptor: GroupDescriptor) -> SignedPermutation:
    """The u whose closed chamber C(u) contains lam in its interior.  A
    point on a wall of that chamber also lies in the chamber across it,
    and raises `BoundaryPoint` without collecting the rest of the star."""
    u, dots = _walk(lam, descriptor)
    if 0 in dots:
        raise BoundaryPoint(
            f"point {list(lam)} lies on a wall of the chamber of {list(u.window)}"
        )
    return u


# --- Root data ------------------------------------------------------------

def _factor_positive_roots(f: Factor) -> list[tuple[int, ...]]:
    """e_i - e_j, then e_i + e_j on BC and D, then 2e_i on BC, for i < j:
    the only hand-written root data, from which the rest is derived."""
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


@lru_cache(maxsize=16)
def _factor_simple_roots(f: Factor) -> tuple[tuple[int, ...], ...]:
    """The positive roots that are not the sum of two positive roots, in
    positive-root order: e_i - e_{i+1}, then 2e_r on BC or e_{r-1} + e_r
    on D (Humphreys, Reflection Groups and Coxeter Groups, Sections 1.2-1.5)."""
    pos = _factor_positive_roots(f)
    sums = {tuple(map(sum, zip(a, b))) for a, b in itertools.combinations(pos, 2)}
    return tuple(beta for beta in pos if beta not in sums)


def _reflection(group: GroupDescriptor, beta: Sequence[int]) -> SignedPermutation:
    """s_beta(x) = x - 2<x,beta>/<beta,beta> beta as the window of the
    signed unit vectors s_beta(e_i): every root here has <beta,beta> 2 or
    4, so the division is exact."""
    norm = sum(c * c for c in beta)
    window = list(range(1, len(beta) + 1))
    for i, b in enumerate(beta):
        if b:
            image = [-2 * b * c // norm for c in beta]
            image[i] += 1
            (window[i],) = (c * (j + 1) for j, c in enumerate(image) if c)
    return SignedPermutation(group, tuple(window))


def is_negative_root_vector(vec: Sequence[Scalar]) -> bool:
    """A vector that is a root is negative iff its first nonzero entry is."""
    for c in vec:
        if c != 0:
            return c < 0
    raise ValueError("zero vector is not a root")


# --- Root sets as bitmasks ------------------------------------------------

@lru_cache(maxsize=16)
def _sparse_roots(
    group: GroupDescriptor,
) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int], tuple, tuple]:
    """What `root_set` needs, built once per group: `all_roots()`, whose
    order numbers the bits; an index from sparse forms to those bits; and
    the nonzero entries (i, c) of each negative root, as (i, c, j, d) for
    two entries and (i, c) for one.  Shared and only read.

    The sparse form of a root lists (c, a) for each entry c e_a, with
    e_abar = -e_a, so (c, a) and (-c, -a) stand for the same entry.  Every
    root is indexed under each way of writing its entries, in both orders
    when there are two: then u(gamma), whose entry c e_{i+1} goes to
    c e_{u(i+1)}, is found by the letters of u alone."""
    roots = group.all_roots()
    index: dict[tuple[int, ...], int] = {}
    pairs, singles = [], []
    for bit, beta in enumerate(roots):
        entries = [(i, c) for i, c in enumerate(beta) if c]
        forms = [[(c, i + 1), (-c, -i - 1)] for i, c in entries]
        if len(entries) == 2:
            for x in forms[0]:
                for y in forms[1]:
                    index[x + y] = index[y + x] = bit
        else:
            for x in forms[0]:
                index[x] = bit
        if is_negative_root_vector(beta):
            if len(entries) == 2:
                pairs.append(entries[0] + entries[1])
            else:
                singles.append(entries[0])
    return roots, index, tuple(pairs), tuple(singles)


@lru_cache(maxsize=1 << 14)
def root_set(u: SignedPermutation) -> int:
    """R(u) = {u(gamma) : gamma a negative root}, the roots beta with
    u^-1 beta negative, as a bitmask over `group.all_roots()`.  Every
    R(u) holds one of beta and -beta for each root.  v^-1 maps
    R(u) - R(v) one to one onto the positive roots that u^-1 v sends
    negative, so |R(u) ^ R(v)| = 2 l(u^-1 v) = 2 metric(u, v): twice the
    number of root hyperplanes between the chambers of u and v
    (Humphreys, Reflection Groups and Coxeter Groups, Sections 1.6-1.7).

    Cached per element, least recently used first out, for at most 2^14
    elements (all of S7, BC5 or D5 fit), so a table over W pays for each
    mask once: `closest_set`'s base elements, `build_fan`'s chambers and
    `SubsetM.root_sets` share it.  Nothing enumerates W to fill it, so it
    serves groups of any order."""
    _, index, pairs, singles = _sparse_roots(u.group)
    win = u.window
    mask = 0
    for i, c, j, d in pairs:
        mask |= 1 << index[c, win[i], d, win[j]]
    for i, c in singles:
        mask |= 1 << index[c, win[i]]
    return mask
