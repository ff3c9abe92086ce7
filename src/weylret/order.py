"""The order route's array kernels: the Bruhat extrema of translates
u^-1 M, for many base elements u at once.

This is the one module of the package that imports numpy.  `matroid`
imports it at its top; `retraction` loads it only when the order route
runs (`matroid_retract`, `retraction_table` with method "matroid" and
`_dominates_all`), so the greedy and metric routes, the limit route and
the fans never load numpy.

The order route translates M once per distinct prefix set: one lookup
per u sends each letter a to the rank of u^-1(a) in
1 < ... < r < rbar < ... < 1bar, and `_translated_sets` gives, at each
level k, the sorted ranks of each distinct set of k leading letters of M
(`SubsetM.prefix_sets`) under u^-1.  Bruhat order becomes entrywise
order of sorted prefixes (the tableau criterion), plus, on D factors, a
parity condition on integer keys of the prefixes, which also depend on
the prefix set alone (`_set_parity_keys`); so both cost per distinct set,
not per member.  A unique extremum has as its sorted prefixes the
column-wise extrema of M's translated prefix sets, so the order route
first reads it off those bounds, for a whole chunk of base elements in
one array pass (`_extrema`), and a table or a matroid check over all of W
enters numpy a few times per chunk rather than per u.  This uses M alone
and never the greedy route.  The base elements of a chunk where no
extremum is read off go together to one batched extremal scan (never to
an error), a Pareto test on integer rows that gathers each member's
sorted prefixes and keys from those of its sets (`SubsetM.prefix_ids`),
and runs in chunks of (base element, row) pairs under one budget, so its
memory stays bounded for any M and any number of failures.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .weyl import GroupDescriptor, SignedPermutation, WeylType

if TYPE_CHECKING:
    from .retraction import SubsetM

# per factor, one array per level k = 1..rank
PerLevel = tuple[tuple[np.ndarray, ...], ...]

# Most (row, member) pairs one chunk of the extremal scan compares at once,
# and most integer entries its translates hold (`_scan_cost` per row).
_SCAN_BUDGET = 1 << 20
# Most int64 entries one chunk of `_extrema` holds in any one intermediate.
_BATCH_BUDGET = 1 << 14


def _prefix_arrays(M: SubsetM) -> tuple[PerLevel, PerLevel]:
    """`SubsetM.prefix_sets` and `SubsetM.prefix_ids` of M."""
    sets_out, ids_out = [], []
    for off, f in M.group.segments():
        sets_f, ids_f = [], []
        for k in range(1, f.rank + 1):
            heads = [tuple(sorted(w.window[off : off + k])) for w in M.elements]
            row = {s: i for i, s in enumerate(sorted(set(heads)))}
            sets_f.append(np.array(list(row), dtype=np.int64))
            ids_f.append(np.array([row[h] for h in heads], dtype=np.intp))
        sets_out.append(tuple(sets_f))
        ids_out.append(tuple(ids_f))
    return tuple(sets_out), tuple(ids_out)


# --- The translated arrays ------------------------------------------------

def _letter_lookups(
    group: GroupDescriptor, bases: np.ndarray | Sequence[Sequence[int]]
) -> np.ndarray:
    """One row per base window u and a column a + N for each letter
    a = +-1..+-N: the rank of u^-1(a) in its factor's chain
    1 < ... < r < rbar < ... < 1bar.  Since u^-1(u(i)) = i, each row is one
    scatter of the window of u."""
    n = group.window_length
    local = np.empty(n, dtype=np.int64)
    top = np.empty(n, dtype=np.int64)
    for off, f in group.segments():
        local[off : off + f.rank] = np.arange(1, f.rank + 1)
        top[off : off + f.rank] = 2 * f.rank + 1
    at = np.asarray(bases, dtype=np.int64)
    rows = np.arange(len(at))[:, None]
    to_rank = np.zeros((len(at), 2 * n + 1), dtype=np.int64)
    to_rank[rows, n + at], to_rank[rows, n - at] = local, top - local
    return to_rank


def _translated_sets(levels: Sequence[np.ndarray], to_rank: np.ndarray) -> Iterator[np.ndarray]:
    """Per level k = 1..r of a factor whose distinct prefix sets are
    `levels`: the ranks of each of the s_k sets translated by each of the b
    base elements of the letter lookups `to_rank`, sorted, shape
    b x s_k x k.  On A and BC factors, w <= v in Bruhat order iff at every
    level w's sorted rank prefix lies entrywise below v's (Bjorner-Brenti,
    GTM 231, Section 2.1 and Cor. 8.1.9), the test
    `weyl._bruhat_leq_prefix` makes on one pair.  On D factors this is
    condition (i) of the order, and `_set_parity_keys` gives condition
    (ii), which `weyl._parity_meets` tests on one pair."""
    n = (to_rank.shape[1] - 1) // 2
    at = np.arange(len(to_rank))[:, None, None]
    for sets in levels:
        yield np.sort(to_rank[at, n + sets], axis=2)


@lru_cache(maxsize=16)
def _parity_table(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For D_r: per letter rank x = 0..2r, what the letter adds, at each
    threshold t = 2..r, to three counts (letters of absolute value >= t,
    barred letters of absolute value < t, barred letters of absolute value
    >= t), shape (2r+1, 3, r-1); the first count of a full prefix, r+1-t;
    and the mask of the (k, t) with k + t > r.  Shared and only read."""
    x = np.arange(2 * r + 1)[:, None]
    t = np.arange(2, r + 1)
    high = (t <= x) & (x <= 2 * r + 1 - t)
    barred = x > r
    table = np.stack([high, barred & ~high, barred & high], axis=1).astype(np.int64)
    return table, r + 1 - t, np.add.outer(np.arange(1, r), t) > r


def _set_parity_keys(
    r: int, off: int, levels: Sequence[np.ndarray], to_rank: np.ndarray
) -> Iterator[np.ndarray]:
    """Keys of condition (ii) of Bruhat order on D_r, per level
    k = 1..r-1 of the D_r factor at offset off, whose distinct prefix sets
    are `levels`, shape s_k x b x k: each of the s_k sets translated by
    each of the b base elements of the letter lookups `to_rank`.  For
    w <= v on D_r, (i) the sorted prefixes must meet (`_translated_sets`)
    and (ii) at every prefix length k < r and threshold t = 2..r where both
    prefixes hold all letters of absolute value >= t and the same number C
    of barred letters of absolute value < t, they must hold the same parity
    P of barred letters of absolute value >= t (the type-D refinement of
    the tableau criterion, Bjorner-Brenti, GTM 231, Section 8.2).  The key
    of (k, t) is -1 when the prefix is not full, else 2C + P, so (ii) fails
    exactly where two keys differ in their last bit alone: x ^ y == 1.  A
    prefix with k + t <= r is never full, so only the k thresholds with
    k + t > r are kept.  A key is a function of the prefix set, and a set's
    three counts are the sums of its letters' parity-table rows; so the
    rows of the factor's 2r letters are gathered once, and each level
    takes one integer product of them with its s_k x 2r 0/1 membership
    matrix.  `weyl._parity_meets` is the one-pair form: the same keys of
    two windows, compared the same way."""
    table, full, kept = _parity_table(r)
    n = (to_rank.shape[1] - 1) // 2
    b = len(to_rank)
    # column i - 1 holds the letter off + i, column 2r - i the letter -(off + i)
    own = np.arange(off + 1, off + r + 1)
    rows = table[to_rank[:, n + np.concatenate([own, -own[::-1]])].T].reshape(2 * r, -1)
    for k, sets in enumerate(levels[: r - 1], start=1):
        member = np.zeros((len(sets), 2 * r), dtype=np.int64)
        cols = np.where(sets > 0, sets - off - 1, 2 * r + off + sets)
        member[np.arange(len(sets))[:, None], cols] = 1
        high, low_bars, high_bars = np.moveaxis((member @ rows).reshape(-1, b, 3, r - 1), 2, 0)
        keys = np.where(high == full, 2 * low_bars + (high_bars & 1), -1)
        yield keys[..., kept[k - 1]]


def _batch_size(M: SubsetM) -> int:
    """How many base elements one chunk of `_extrema` takes.  Per base
    element it holds M's translated prefix sets, sorted; on each D_r
    factor, the parity-table rows of its 2r letters and the three counts
    of each distinct prefix set below level r, at every threshold."""
    per_base = 2 * sum(sets.size for levels in M.prefix_sets for sets in levels)
    for (_, f), levels in zip(M.group.segments(), M.prefix_sets):
        if f.type is WeylType.D:
            sets = sum(len(s) for s in levels[: f.rank - 1])
            per_base += 3 * (f.rank - 1) * (2 * f.rank + sets)
    return max(1, _BATCH_BUDGET // per_base)


def _extrema(M: SubsetM, bases: np.ndarray, side: str) -> np.ndarray:
    """For each row u of the b x N windows `bases`: the index in M of the
    unique Bruhat-least (side "min") or -greatest ("max") translate
    u^-1 v, or -1 when there is none.  A unique extremum lies below
    (above) every translate, so at each level k its sorted rank prefix is
    the column-wise extremum of M's translated prefix sets
    (`_translated_sets`).  The bounds at levels k - 1 and k interlace, so
    the difference of their sums is a rank in 1..2r: the k-th letter of
    the translate, which u maps back to a letter of v, and v is looked up
    by window.  A member found so has these ranks, so each of its sorted
    prefixes is bounded by, and sums to, the bound at its level: it equals
    the bound, and the bounds are nested.  On a D factor, v's parity keys,
    those of its own prefix sets, must also meet those of every set
    (`_set_parity_keys`).  The bounds depend on M alone, not on any
    candidate from another route."""
    bases = np.asarray(bases, dtype=np.int64)
    to_rank = _letter_lookups(M.group, bases)
    rows = np.arange(len(bases))[:, None]
    extremum = np.min if side == "min" else np.max
    wins = np.empty_like(bases)
    for (off, f), levels in zip(M.group.segments(), M.prefix_sets):
        # the letter u(i) of v has rank i, and u(-i) = -u(i) has rank 2r + 1 - i
        seg = bases[:, off : off + f.rank]
        letters = np.concatenate([seg, -seg[:, ::-1]], axis=1)
        added = np.empty((len(bases), f.rank), dtype=np.int64)
        prev = 0
        for k, translated in enumerate(_translated_sets(levels, to_rank)):
            total = extremum(translated, axis=1).sum(axis=1)
            added[:, k] = total - prev
            prev = total
        wins[:, off : off + f.rank] = letters[rows, added - 1]
    index = M.index
    found = np.array([index.get(tuple(w), -1) for w in wins.tolist()], dtype=np.int64)
    hit = np.flatnonzero(found >= 0)
    for (off, f), levels, ids in zip(M.group.segments(), M.prefix_sets, M.prefix_ids):
        if f.type is WeylType.D and hit.size:
            v = found[hit]
            ok = np.ones(hit.size, dtype=bool)
            for keys, at in zip(_set_parity_keys(f.rank, off, levels, to_rank[hit]), ids):
                ok &= ((keys ^ keys[at[v], np.arange(hit.size)]) != 1).all(axis=(0, 2))
            found[hit[~ok]] = -1
            hit = hit[ok]
    return found



def _scan_cost(M: SubsetM) -> int:
    """Entries one row of the extremal scan holds: its m comparisons with
    the translates of its base element, or its gathered sorted prefixes
    and, on a D_r factor, k parity keys at each level k < r, whichever is
    more."""
    width = 0
    for _, f in M.group.segments():
        width += f.rank * (f.rank + 1) // 2
        if f.type is WeylType.D:
            width += f.rank * (f.rank - 1) // 2
    return max(len(M), width)


def _extremal_elements(
    M: SubsetM, us: Sequence[SignedPermutation], side: str
) -> list[tuple[SignedPermutation, ...]]:
    """For each u of `us`, the elements of M whose translate u^-1 v is
    Bruhat-minimal (or -maximal) within u^-1 M: the quadratic scan.  It is
    a Pareto test on the sorted prefixes, with the parity keys of D
    factors alongside, each member's gathered from those of its prefix
    sets; it runs on the (base element, row) pairs in chunks that hold at
    most `_SCAN_BUDGET` entries, `_scan_cost` per row: several whole base
    elements at once when their m rows fit, so M's prefix sets are
    translated for them in one pass, else one base element in chunks of
    rows."""
    m = len(M)
    below = np.less_equal if side == "min" else np.greater_equal
    step = max(1, _SCAN_BUDGET // _scan_cost(M))
    per = max(1, step // m)
    out = []
    for lo in range(0, len(us), per):
        to_rank = _letter_lookups(M.group, [u.window for u in us[lo : lo + per]])
        heads, parity = [], []
        for (off, f), levels, ids in zip(M.group.segments(), M.prefix_sets, M.prefix_ids):
            heads.extend(sets[:, at] for sets, at in zip(_translated_sets(levels, to_rank), ids))
            if f.type is WeylType.D:
                per_set = _set_parity_keys(f.rank, off, levels, to_rank)
                parity.extend(keys[at] for keys, at in zip(per_set, ids))
        # one C-contiguous b x m column per sorted-prefix entry and per key
        cols = np.ascontiguousarray(np.moveaxis(np.concatenate(heads, axis=-1), -1, 0))
        key_cols = np.ascontiguousarray(np.concatenate(parity, axis=-1).T) if parity else ()
        keep = np.empty((len(to_rank), m), dtype=bool)
        for r0 in range(0, m, step):
            at = slice(r0, r0 + step)
            # meets[b, c, j]: at base element b, translate j lies below
            # (side "max": above) row c
            meets = below(cols[0][:, None, :], cols[0][:, at, None])
            for col in cols[1:]:
                meets &= below(col[:, None, :], col[:, at, None])
            for keys in key_cols:
                meets &= (keys[:, None, :] ^ keys[:, at, None]) != 1
            # distinct translates have distinct rows, so a row meets only itself
            keep[:, at] = meets.sum(axis=2) == 1
        out.extend(tuple(compress(M.elements, row)) for row in keep.tolist())
    return out


def _extremal_sets(
    M: SubsetM, us: Sequence[SignedPermutation], side: str, greedy_first: bool
) -> Iterator[tuple[SignedPermutation, ...]]:
    """The extremal elements at each u of `us`, in order, a chunk of base
    elements at a time.  With `greedy_first`, the unique extrema of the
    chunk are found by one `_extrema` call, and the base elements where
    none is found go together to one call of the quadratic scan
    `_extremal_elements`, which is skipped when there are none; otherwise
    the whole chunk goes to the scan."""
    step = _batch_size(M)
    for lo in range(0, len(us), step):
        chunk = us[lo : lo + step]
        if greedy_first:
            found = _extrema(M, np.array([u.window for u in chunk], dtype=np.int64), side).tolist()
        else:
            found = [-1] * len(chunk)
        failed = [u for u, i in zip(chunk, found) if i < 0]
        scanned = iter(_extremal_elements(M, failed, side) if failed else ())
        for i in found:
            yield (M.elements[i],) if i >= 0 else next(scanned)

