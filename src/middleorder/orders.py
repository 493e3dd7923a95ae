"""
The three orders on S_n: middle, weak and Bruhat.

The middle order compares inversion sequences coordinate-wise, which
makes it a distributive lattice (a product of chains).  In all three
orders an upper cover of v swaps the two entries of a rise 12 of v
whose shaded region is empty; the orders differ only in the shaded
cells (Brändén–Claesson mesh patterns).  Weak and Bruhat comparability
are computed as reflexive-transitive closures of their cover relations,
cached per size.
"""
from __future__ import annotations

from functools import lru_cache, partial
from typing import Iterator, Optional

from .permutations import (
    MeshPattern,
    Perm,
    all_permutations,
    from_inversion_sequence,
    inversion_pair,
    inversion_sequence,
    shading_is_empty,
    validate_pair,
)
from .posets import FinitePoset

# ---------------------------------------------------------------------------
# Covers as swaps of a shaded rise

# The column between the rise's positions is shaded below its top value
# (middle), entirely (weak: the positions are adjacent) or between its
# two values only (Bruhat: the swap adds exactly one inversion).
MIDDLE_RISE = MeshPattern((1, 2), {(1, 0), (1, 1)})
WEAK_RISE = MeshPattern((1, 2), {(1, 0), (1, 1), (1, 2)})
BRUHAT_RISE = MeshPattern((1, 2), {(1, 1)})


def _rise_swaps(v: Perm, rise: MeshPattern) -> Iterator[Perm]:
    """v with the two entries of each occurrence of the shaded rise swapped."""
    n = len(v)
    for a in range(n):
        for b in range(a + 1, n):
            if v[a] < v[b] and shading_is_empty(v, (a + 1, b + 1), rise):
                word = list(v)
                word[a], word[b] = word[b], word[a]
                yield tuple(word)


def _swapped_rise(v: Perm, w: Perm) -> Optional[tuple[int, int]]:
    """Positions a < b (0-based) such that w is v with the rise v[a] < v[b]
    swapped, or None."""
    diff = [p for p in range(len(v)) if v[p] != w[p]]
    if len(diff) != 2:
        return None
    a, b = diff
    if v[a] < v[b] and w[a] == v[b] and w[b] == v[a]:
        return a, b
    return None


# ---------------------------------------------------------------------------
# Middle order


def middle_leq(v: Perm, w: Perm) -> bool:
    x, y = inversion_pair(v, w)
    return all(a <= b for a, b in zip(x, y))


def middle_covers(v: Perm, w: Perm) -> bool:
    """True iff the inversion sequences differ by +1 in exactly one coordinate."""
    x, y = inversion_pair(v, w)
    diffs = [b - a for a, b in zip(x, y)]
    return diffs.count(0) == len(x) - 1 and diffs.count(1) == 1


def meet(v: Perm, w: Perm) -> Perm:
    x, y = inversion_pair(v, w)
    return from_inversion_sequence(tuple(min(a, b) for a, b in zip(x, y)))


def join(v: Perm, w: Perm) -> Perm:
    x, y = inversion_pair(v, w)
    return from_inversion_sequence(tuple(max(a, b) for a, b in zip(x, y)))


def rank(w: Perm) -> int:
    """Number of inversions of w; the middle-order rank function."""
    return sum(inversion_sequence(w))


def upper_covers(w: Perm) -> list[Perm]:
    """Elements covering w in the middle order, in coordinate order."""
    x = list(inversion_sequence(w))
    out = []
    for i in range(len(x)):
        if x[i] < i:
            x[i] += 1
            out.append(from_inversion_sequence(tuple(x)))
            x[i] -= 1
    return out


def join_irreducibles(n: int) -> list[Perm]:
    """Permutations whose inversion sequence has exactly one nonzero entry.

    These are the words 1 2 ... i j (i+1) ... (j-1) (j+1) ... n; there
    are n(n-1)/2 of them.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    out = []
    for j in range(2, n + 1):
        for k in range(1, j):
            coords = [0] * n
            coords[j - 1] = k
            out.append(from_inversion_sequence(tuple(coords)))
    return out


def mobius_middle(v: Perm, w: Perm) -> int:
    """Closed-form Moebius function of the middle order.

    Zero unless [v, w] is a boolean interval (all coordinate differences
    0 or 1), in which case it is (-1)^(rank difference).
    """
    x, y = inversion_pair(v, w)
    diffs = [b - a for a, b in zip(x, y)]
    if any(d < 0 for d in diffs):
        return 0
    if any(d > 1 for d in diffs):
        return 0
    return -1 if sum(diffs) % 2 else 1


def cover_mesh_witness(v: Perm, w: Perm) -> Optional[tuple[int, int]]:
    """The value pair (j, i) swapped between v and w when v is covered by w.

    The pair is an occurrence in v of the rise pattern with the cells
    below-and-between shaded: j before i, j < i, and no value smaller
    than i strictly between their positions.  Returns None when w is not
    v with such a pair swapped.
    """
    v, w = validate_pair(v, w)
    pair = _swapped_rise(v, w)
    if pair is None:
        return None
    a, b = pair
    if not shading_is_empty(v, (a + 1, b + 1), MIDDLE_RISE):
        return None
    return v[a], v[b]


# ---------------------------------------------------------------------------
# Weak and Bruhat orders


def weak_covers(v: Perm, w: Perm) -> bool:
    """True iff w is v with two adjacent positions holding an ascent swapped."""
    v, w = validate_pair(v, w)
    pair = _swapped_rise(v, w)
    return pair is not None and pair[1] == pair[0] + 1


def bruhat_covers(v: Perm, w: Perm) -> bool:
    """True iff w is v with one noninversion turned into an inversion and
    the inversion count goes up by exactly one."""
    v, w = validate_pair(v, w)
    return _swapped_rise(v, w) is not None and rank(w) == rank(v) + 1


@lru_cache(maxsize=None)
def _closure(n: int, kind: str) -> tuple[dict[Perm, int], list[int]]:
    """Reachability masks over the cover relation of the given order."""
    perms = all_permutations(n)
    index = {p: i for i, p in enumerate(perms)}
    if kind == "middle":
        covers_of = upper_covers
    else:
        rise = WEAK_RISE if kind == "weak" else BRUHAT_RISE
        covers_of = partial(_rise_swaps, rise=rise)
    succ: list[list[int]] = [[] for _ in perms]
    for p in perms:
        succ[index[p]] = [index[q] for q in covers_of(p)]
    above = [0] * len(perms)
    # Covers raise the inversion count by one, so processing by
    # decreasing rank is a reverse topological order.
    for i in sorted(range(len(perms)), key=lambda i: -rank(perms[i])):
        mask = 1 << i
        for j in succ[i]:
            mask |= above[j]
        above[i] = mask
    return index, above


def weak_leq(v: Perm, w: Perm) -> bool:
    v, w = validate_pair(v, w)
    index, above = _closure(len(v), "weak")
    return bool(above[index[v]] >> index[w] & 1)


def bruhat_leq(v: Perm, w: Perm) -> bool:
    v, w = validate_pair(v, w)
    index, above = _closure(len(v), "bruhat")
    return bool(above[index[v]] >> index[w] & 1)


# ---------------------------------------------------------------------------
# Posets for the oracle and for diagrams


def middle_poset(n: int) -> FinitePoset:
    return _cover_poset(n, upper_covers)


def weak_poset(n: int) -> FinitePoset:
    return _cover_poset(n, partial(_rise_swaps, rise=WEAK_RISE))


def bruhat_poset(n: int) -> FinitePoset:
    return _cover_poset(n, partial(_rise_swaps, rise=BRUHAT_RISE))


def _cover_poset(n, covers_of) -> FinitePoset:
    perms = all_permutations(n)
    index = {p: i for i, p in enumerate(perms)}
    pairs = []
    for p in perms:
        for q in covers_of(p):
            pairs.append((index[p], index[q]))
    return FinitePoset.from_covers(perms, pairs)
